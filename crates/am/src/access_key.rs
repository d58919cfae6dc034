//! The (requester, subject, resource, action) key that the consent
//! index and the use counters are keyed by, with lookups that borrow.
//!
//! A `HashMap<(String, Option<String>, ResourceRef, Action), _>` can only
//! be probed with an owned tuple, so every PDP query used to clone four
//! strings just to look. Here hashing and equality go through one borrowed
//! view, [`AccessKeyRef`], for owned and borrowed keys alike, and the
//! owned [`AccessKey`] borrows as `dyn AsAccessKey`, so a map keyed by it
//! answers `get(&key_ref as &dyn AsAccessKey)` without allocating.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use ucam_policy::{Action, ResourceRef};

/// An owned (requester, subject, resource, action) key.
#[derive(Debug, Clone)]
pub(crate) struct AccessKey {
    requester: String,
    subject: Option<String>,
    resource: ResourceRef,
    action: Action,
}

/// The fields of an [`AccessKey`], borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AccessKeyRef<'a> {
    requester: &'a str,
    subject: Option<&'a str>,
    resource: &'a ResourceRef,
    action: &'a Action,
}

impl<'a> AccessKeyRef<'a> {
    pub(crate) fn new(
        requester: &'a str,
        subject: Option<&'a str>,
        resource: &'a ResourceRef,
        action: &'a Action,
    ) -> Self {
        AccessKeyRef {
            requester,
            subject,
            resource,
            action,
        }
    }

    pub(crate) fn to_owned_key(self) -> AccessKey {
        AccessKey {
            requester: self.requester.to_owned(),
            subject: self.subject.map(str::to_owned),
            resource: self.resource.clone(),
            action: self.action.clone(),
        }
    }
}

/// Anything that views as an [`AccessKeyRef`]: the probe type of maps
/// keyed by [`AccessKey`].
pub(crate) trait AsAccessKey {
    fn view(&self) -> AccessKeyRef<'_>;
}

impl AsAccessKey for AccessKey {
    fn view(&self) -> AccessKeyRef<'_> {
        AccessKeyRef::new(
            &self.requester,
            self.subject.as_deref(),
            &self.resource,
            &self.action,
        )
    }
}

impl AsAccessKey for AccessKeyRef<'_> {
    fn view(&self) -> AccessKeyRef<'_> {
        *self
    }
}

impl Hash for dyn AsAccessKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for dyn AsAccessKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn AsAccessKey + '_ {}

impl Hash for AccessKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for AccessKey {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for AccessKey {}

impl<'a> Borrow<dyn AsAccessKey + 'a> for AccessKey {
    fn borrow(&self) -> &(dyn AsAccessKey + 'a) {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn borrowed_probe_finds_owned_key() {
        let photo = ResourceRef::new("h.example", "photo-1");
        let mut map = HashMap::new();
        map.insert(
            AccessKeyRef::new("req", Some("alice"), &photo, &Action::Read).to_owned_key(),
            7,
        );
        let hit = AccessKeyRef::new("req", Some("alice"), &photo, &Action::Read);
        assert_eq!(map.get(&hit as &dyn AsAccessKey), Some(&7));
        for miss in [
            AccessKeyRef::new("req", None, &photo, &Action::Read),
            AccessKeyRef::new("req", Some("alice"), &photo, &Action::Write),
            AccessKeyRef::new("other", Some("alice"), &photo, &Action::Read),
        ] {
            assert_eq!(map.get(&miss as &dyn AsAccessKey), None);
        }
    }
}
