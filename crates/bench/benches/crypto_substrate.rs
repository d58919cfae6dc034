//! Ablation bench for the crypto substrate: SHA-256, HMAC, and sealed
//! tokens — the fixed per-message costs under every protocol flow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ucam_crypto::{hmac_sha256, sha256, SigningKey};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(std::hint::black_box(data)));
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let key = b"benchmark-key";
    let msg = vec![0x5au8; 256];
    // One-shot: prepares the key's pads on every call.
    c.bench_function("crypto/hmac_sha256_256B", |b| {
        b.iter(|| hmac_sha256(key, std::hint::black_box(&msg)));
    });
    // Through a held `SigningKey`, whose pads were prepared once: the
    // cost every token mint and check pays.
    let signing = SigningKey::from_secret(key.to_vec());
    c.bench_function("crypto/sign_256B", |b| {
        b.iter(|| signing.sign(std::hint::black_box(&msg)));
    });
}

fn bench_seal_open(c: &mut Criterion) {
    let key = SigningKey::generate();
    let payload = b"kind=authz;res=albums/rome/photo-1;req=requester:alice;exp=900000";
    c.bench_function("crypto/seal", |b| {
        b.iter(|| key.seal(std::hint::black_box(payload)));
    });
    let token = key.seal(payload);
    c.bench_function("crypto/open", |b| {
        b.iter(|| key.open(std::hint::black_box(&token)).unwrap());
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_sha256, bench_hmac, bench_seal_open
);
criterion_main!(benches);
