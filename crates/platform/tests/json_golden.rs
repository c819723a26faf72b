//! Frozen `Platform::to_json` bytes and `Platform::from_json` error texts.
//!
//! `tests/golden/json/` pins the pretty JSON of seeded generator platforms
//! (K = 5, 12, 50, each with and without relay routers) and of one builder
//! platform that has every routing edge case: two clusters on one router
//! (an empty route), a disconnected component (no route) and explicit
//! routes that override computed ones. Small platforms are pinned as whole
//! text, every platform by length, line count and FNV-1a digest. The error
//! texts that parsing and validation give on malformed route tables are
//! pinned too. A change to the route table's layout or codec must leave
//! every byte here untouched. Regenerate with
//! `GOLDEN_BLESS=1 cargo test -p dls_platform --test json_golden` and review
//! the diff: a line may only move when the change says why.

use dls_platform::{Platform, PlatformBuilder, PlatformConfig, PlatformGenerator};
use std::fmt::Write as _;
use std::path::PathBuf;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/json")
        .join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with GOLDEN_BLESS=1)", path.display()));
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "{name}: line {} moved", i + 1);
    }
    assert_eq!(expected, actual, "{name}: bytes moved");
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A sparse generator platform: low connectivity gives multi-hop routes.
fn generated(k: usize, relays: usize) -> Platform {
    let config = PlatformConfig {
        num_clusters: k,
        connectivity: 0.25,
        relay_routers: relays,
        ..PlatformConfig::default()
    };
    PlatformGenerator::new(k as u64 * 31 + relays as u64).generate(&config)
}

/// Every routing edge case in one platform:
/// - C0 and C1 share router R0, so `L_{0,1}` and `L_{1,0}` are empty;
/// - C4 and C5 form a component of their own, unreachable from C0..C3;
/// - `L_{0,3}` is pinned through the relay R3 (the computed route goes
///   through R1), first to one path and then, overriding that, to another;
/// - `L_{3,2}` is pinned to a detour where a direct link exists.
fn edge_cases() -> Platform {
    let mut b = PlatformBuilder::new();
    let r0 = b.add_router();
    let c0 = b.add_cluster_at(100.0, 50.0, r0);
    let c1 = b.add_cluster_at(80.0, 40.0, r0);
    let c2 = b.add_cluster(120.0, 60.0);
    let c3 = b.add_cluster(90.0, 30.0);
    let r3 = b.add_router();
    let c4 = b.add_cluster(70.0, 20.0);
    let c5 = b.add_cluster(60.0, 25.0);
    let l02 = b.connect_clusters(c0, c2, 20.0, 4);
    let l23 = b.connect_clusters(c2, c3, 30.0, 6);
    let l0r = b.add_backbone(r0, r3, 10.0, 2);
    let lr3 = b.add_backbone(r3, b.cluster_router(c3), 15.0, 3);
    let l03 = b.connect_clusters(c0, c3, 5.0, 1);
    b.connect_clusters(c4, c5, 40.0, 8);
    b.set_route(c0, c3, vec![l02, l23]);
    b.set_route(c0, c3, vec![l0r, lr3]);
    b.set_route(c3, c2, vec![l03, l02]);
    let p = b.build().expect("the edge-case platform is valid");
    assert_eq!(p.route(c0, c1), Some(&[][..]));
    assert_eq!(p.route(c0, c4), None);
    assert_eq!(p.route(c0, c3), Some(&[l0r, lr3][..]));
    p
}

#[test]
fn platform_json_bytes_are_frozen() {
    let mut digests = String::new();
    let mut platforms = vec![("edge_cases".to_string(), edge_cases())];
    for k in [5, 12, 50] {
        for relays in [0, 3] {
            let name = match relays {
                0 => format!("gen_k{k}"),
                _ => format!("gen_k{k}_relays"),
            };
            platforms.push((name, generated(k, relays)));
        }
    }
    for (name, p) in &platforms {
        let json = p.to_json();
        writeln!(
            digests,
            "{name} bytes={} lines={} fnv1a={:016x}",
            json.len(),
            json.lines().count(),
            fnv1a(json.as_bytes())
        )
        .unwrap();
        if p.num_clusters() <= 6 {
            check(&format!("{name}.json"), &json);
        }
        let back = Platform::from_json(&json).expect("a printed platform reads back");
        assert_eq!(back.to_json(), json, "{name}: print → read → print moved");
    }
    check("digests.txt", &digests);
}

/// Three clusters on a line R0 — R1 — R2; links 0 = R0–R1, 1 = R1–R2.
fn line() -> Platform {
    let mut b = PlatformBuilder::new();
    let c0 = b.add_cluster(100.0, 50.0);
    let c1 = b.add_cluster(100.0, 50.0);
    let c2 = b.add_cluster(100.0, 50.0);
    b.connect_clusters(c0, c1, 10.0, 4);
    b.connect_clusters(c1, c2, 20.0, 2);
    b.build().expect("the line platform is valid")
}

#[test]
fn route_table_errors_are_frozen() {
    let compact = serde_json::to_string(&line()).unwrap();
    let head = &compact[..compact.find("\"routes\":").expect("routes is a key")];
    // The line platform's own table, row-major, for reference:
    // [null,[0],[0,1],[0],null,[1],[1,0],[1],null]
    let cases: [(&str, &str); 16] = [
        (
            "route count below K²",
            "\"routes\":[null,[0],[0,1],[0],null,[1],[1,0],[1]]}",
        ),
        (
            "route count above K²",
            "\"routes\":[null,[0],[0,1],[0],null,[1],[1,0],[1],null,null]}",
        ),
        (
            "a stored self-route",
            "\"routes\":[[],[0],[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "a broken path",
            "\"routes\":[null,[1],[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "an empty route between distinct routers",
            "\"routes\":[null,[],[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "an unknown link",
            "\"routes\":[null,[0],[0,7],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "a path that stops short",
            "\"routes\":[null,[0],[0],[0],null,[1],[1,0],[1],null]}",
        ),
        ("no routes key", "\"other\":1}"),
        ("routes null", "\"routes\":null}"),
        ("routes an object", "\"routes\":{}}"),
        (
            "a route that is a number",
            "\"routes\":[null,0,[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "a null link",
            "\"routes\":[null,[null],[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "a negative link",
            "\"routes\":[null,[-1],[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "a fractional link",
            "\"routes\":[null,[0.5],[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "a link past u32",
            "\"routes\":[null,[4294967296],[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
        (
            "an unclosed route",
            "\"routes\":[null,[0,[0,1],[0],null,[1],[1,0],[1],null]}",
        ),
    ];
    let mut out = String::new();
    for (what, tail) in cases {
        let text = format!("{head}{tail}");
        let err = Platform::from_json(&text).expect_err(what);
        writeln!(out, "{what}: {err}").unwrap();
    }
    let fine = format!("{head}\"routes\":[null,[0],[0,1],[0],null,[1],[1,0],[1],null]}}");
    assert_eq!(
        Platform::from_json(&fine).unwrap().to_json(),
        line().to_json()
    );
    check("route_errors.txt", &out);
}
