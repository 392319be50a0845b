//! Output digests recorded by this benchmark, and the helpers that
//! compute them. A digest is the SHA-256 of an output's canonical JSON
//! (or of its raw `f64` bits), so any change to a result bit shows.
//!
//! `paper_grid` and `photonic_verify` do not depend on the seed (it only
//! reorders their runs), so their digests are checked at every seed.
//! `noc_load` and `serve_mix` take their seed from the command line;
//! their digests were recorded at [`crate::DEFAULT_SEED`] and are
//! checked there only, and at other seeds the invariants are checked.
//!
//! A run whose output differs prints the new digest beside the recorded
//! one; replace the entry here only when a change to the simulator's
//! results is intended.

use flumen_sweep::hash::sha256_hex;
use flumen_sweep::ToJson;

/// `sha256(canonical JSON of JobResult::FullRun)` per paper-grid job label.
pub const GRID: &[(&str, &str)] = &[
    (
        "run/image_blur/flumen_a",
        "d1d1142614bbef016ffcf7aa2c8290711f6da03bd492e36b702796e881acb47e",
    ),
    (
        "run/image_blur/flumen_i",
        "aacd2b022a46bc70208fcbe4254b56351f6e2bc7eb965960bbbedeac2d6fe968",
    ),
    (
        "run/image_blur/mesh",
        "b0e261d06fe700f86bacce8f2e643d8cbc87f4f9ff56be00c76677f292c9fd18",
    ),
    (
        "run/image_blur/optbus",
        "0d4a2af0ed2fa558d6de097864a0805b24affac4693902655b9fbb22b0a69c58",
    ),
    (
        "run/image_blur/ring",
        "ed1c4c75d292827eebfc9da11dc1463e7389fc3f01a3497eaff44fc457178ad5",
    ),
    (
        "run/jpeg/flumen_a",
        "37d9b6c44300787a84ff17d196294a67ef2ccee56044d6a75df4d99bcd7a7167",
    ),
    (
        "run/jpeg/flumen_i",
        "174604f2546e4f87f505cd034f319b7c843269952a38ee1314146599e076e98a",
    ),
    (
        "run/jpeg/mesh",
        "d0dd38be288e88101ce8de52ee62e2e7c82f0ce78772044173c4df5a73413f49",
    ),
    (
        "run/jpeg/optbus",
        "f20060ba3f4d93e3d3a44771fa77f596d58aed4bbb510356bf191f5a9f4e5be2",
    ),
    (
        "run/jpeg/ring",
        "ca6329865233490972e4d609ca69678223951ed068ec9a7cfa60405aecb0970e",
    ),
    (
        "run/resnet50_conv3/flumen_a",
        "1281781d090d5cf48048ec32002b3af5268a36eddba1bbc613ca35bd77e5b6ed",
    ),
    (
        "run/resnet50_conv3/flumen_i",
        "345d146662ead285f7c0d6103945c18d5d40b3551b53644475c03d5e02d47b76",
    ),
    (
        "run/resnet50_conv3/mesh",
        "2a0771f027383a8ac3217789f2d083320247a1a8eddf415dc61c93cbf73cf604",
    ),
    (
        "run/resnet50_conv3/optbus",
        "3f458f686a6eb81b88c49b56e00cfe915e31d0dfbbb609af25c948c4d22d1c2b",
    ),
    (
        "run/resnet50_conv3/ring",
        "d00477678b6513051d4eb9c0a425a0d7bb6bad89ed6113a0901c37b6c588d127",
    ),
    (
        "run/rotation_3d/flumen_a",
        "9e26542284af70f57875abbedd87d26f0ca0754c1be22413b35c4b639cd241cf",
    ),
    (
        "run/rotation_3d/flumen_i",
        "9a1bf4398f6b6821ceaea26706f76749fe72f1a4ba0810716beb5f81dd5f032c",
    ),
    (
        "run/rotation_3d/mesh",
        "c120043309c80bf14abfd2559f7df75a7399e0699bc7f5ee77128f49f0a63eca",
    ),
    (
        "run/rotation_3d/optbus",
        "d2f0fd6fb84668cc5fcdc1199a96d6c17d2bb66d1e21d53ec32a513f767fa7b8",
    ),
    (
        "run/rotation_3d/ring",
        "3d4da668835006a26e66f03bbedaf980074d838caf4b265aac3db94510dd5631",
    ),
    (
        "run/vgg16_fc/flumen_a",
        "583fe818981cb595e2eb02c83bce1476cc1c0bd48ad4b16643b4f53ce6635c47",
    ),
    (
        "run/vgg16_fc/flumen_i",
        "05b836f826c086dc975cc0b5b867e2a20e466bacb8bb9e6b8cd132b4e21d0a29",
    ),
    (
        "run/vgg16_fc/mesh",
        "4a312655c74a845384538c3f1bf868c0680558e58f3d84abd1477ca29d0ed61e",
    ),
    (
        "run/vgg16_fc/optbus",
        "25b904abc6197762b887f2990f87418356085dcfa5fe522c6cb4508a4069a6c2",
    ),
    (
        "run/vgg16_fc/ring",
        "9c1d2ac904b30ca3f44c5a2858ad7969c955e5c219f16f6498f120890dd7c957",
    ),
];

/// `sha256(canonical JSON of JobResult::NocStats)` per `noc_load` point
/// at the default seed.
pub const NOC_LOAD: &[(&str, &str)] = &[
    (
        "flumen_i/load05",
        "998dfe237b699f8be7c8f1e693916905d93c20fc7644cdcebc0088d34df824a6",
    ),
    (
        "flumen_i/load30",
        "9ce048ebceae2989d719fbbb0344f1fc4f6efdcea9c54e26d844847f0f79b08c",
    ),
    (
        "flumen_i/load80",
        "e78d56e66b86d6db06047b958fbee41a818eb1fab6038dd99c045afac1647770",
    ),
    (
        "mesh/load05",
        "2e8ceaecaacbedaa5bcfe0c6bcd2213b57d07b94f21d699e4bb6b47ef5f2474f",
    ),
    (
        "mesh/load30",
        "a205cd98884dcd978eecf0e7ada087fb7cc12a689adcc38600ab8da63742d201",
    ),
    (
        "mesh/load80",
        "4394432ea820f2ac2c64e258446cffa9e1ffead8ebe5fecb86ddbfe6050568f5",
    ),
    (
        "optbus/load05",
        "922c163bcd8a6b0178786cc4695e4f7c44f9d134d343a3bbbe250811ac2c3d66",
    ),
    (
        "optbus/load30",
        "e19ed5581f3d55bdd05d81f2e9da1b4b17efe7b635e6055b141e5065e72ee715",
    ),
    (
        "optbus/load80",
        "a180d28606b50d797d3ec3b9a6708caf05945260de0cd3adcae942f153cd229d",
    ),
    (
        "ring/load05",
        "2dd7abbce52244358159130af4d6bb5c0e4bdc3fb3b622ba7390bbd85ae0a0ed",
    ),
    (
        "ring/load30",
        "eb81cd9a3b25c827c128a611ace8c659b5eeab9a181296df16878defd916b2df",
    ),
    (
        "ring/load80",
        "8c9bf0a8e82f7bf98cc320430ea489b41c4653cbc36a7a1404c867ac193c6953",
    ),
    (
        "torus/load05",
        "10e823f232fd887644a53c8c167eee542afb7ec47836524c25b915e26018d6d7",
    ),
    (
        "torus/load30",
        "413dcc9cf9bcc5a5a2a3245c5f5b75c8064f7d2608c5a23739b58d0203404123",
    ),
    (
        "torus/load80",
        "fe5dfa8b444f6e991284718c96dd665752e5e4e4f08c504d01cbdebc5431cea4",
    ),
];

/// `sha256` of the raw output bits of each photonic benchmark run.
pub const VERIFY: &[(&str, &str)] = &[
    (
        "image_blur",
        "c263ea838eba40c413131c489f77b7c8f891a8c2aaf3e868f86346b5e4b6659f",
    ),
    (
        "jpeg",
        "3301b0e77d251869e09cd5f95b96650306dfd41ffb296d221fac10865a83397d",
    ),
    (
        "resnet50_conv3",
        "f023aadfb98cfff519dcf070fc5f5686dde581d655c703d6f7a0cfd29a33a75e",
    ),
    (
        "rotation_3d",
        "8e069473552e89ad770fdb4fe77f5f50b44d9171a7662cdcb28ff192ebaae70b",
    ),
    (
        "vgg16_fc",
        "0acb2723533623735dfcf50648f86cb82ca5151ef8328cb3e8c5bb37e218d1e2",
    ),
];

/// `sha256` over the newline-joined `ServeReport::result_hash` of every
/// `serve_mix` scenario at the default seed.
pub const SERVE: &str = "a2208dce09e4e76671213042163298e16d995b3ab604a9d955d41527067d101f";

/// The recorded digest for `key`, if any.
pub fn recorded(table: &[(&str, &'static str)], key: &str) -> Option<&'static str> {
    table.iter().find(|(k, _)| *k == key).map(|(_, d)| *d)
}

/// SHA-256 of a value's canonical JSON.
pub fn of_json(value: &impl ToJson) -> String {
    sha256_hex(value.to_json().to_canonical().as_bytes())
}

/// SHA-256 over the little-endian bits of every value, in order.
pub fn of_bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> String {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    sha256_hex(&bytes)
}

/// Compares `got` with the recorded digest for `key`, printing both on a
/// mismatch. A key with no recorded digest is a mismatch.
pub fn matches(table: &[(&str, &'static str)], key: &str, got: &str) -> bool {
    let want = recorded(table, key);
    if want != Some(got) {
        println!("  digest mismatch {key}: got {got}, recorded {want:?}");
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_tables_hold_distinct_keys_and_sha256_digests() {
        for table in [GRID, NOC_LOAD, VERIFY] {
            let mut keys = std::collections::BTreeSet::new();
            for (k, d) in table {
                assert!(keys.insert(*k), "{k} recorded twice");
                assert!(
                    d.len() == 64 && d.bytes().all(|b| b.is_ascii_hexdigit()),
                    "{k}"
                );
            }
        }
        assert_eq!(SERVE.len(), 64);
    }

    #[test]
    fn matches_rejects_unknown_keys_and_changed_digests() {
        let table = [("a", "00")];
        assert!(matches(&table, "a", "00"));
        assert!(!matches(&table, "a", "01"));
        assert!(!matches(&table, "b", "00"));
    }

    #[test]
    fn bit_digest_sees_every_bit() {
        assert_ne!(of_bits(&[0.0]), of_bits(&[-0.0]));
        assert_ne!(of_bits(&[1.0, 2.0]), of_bits(&[2.0, 1.0]));
    }
}
