//! Guard test for the hermetic-build policy: the workspace depends on
//! NOTHING outside the repository. It parses every manifest (and the
//! lockfile) rather than trusting documentation, so a registry dependency
//! sneaking into any crate fails the build here with a pointed message.

use std::fs;
use std::path::{Path, PathBuf};

/// Crate-name prefix every in-tree dependency must carry.
const IN_TREE_PREFIX: &str = "realtor-";

/// Workspace package names allowed to appear in Cargo.lock.
const WORKSPACE_PACKAGES: &[&str] = &[
    "realtor",
    "experiments",
    "realtor-agile",
    "realtor-bench",
    "realtor-core",
    "realtor-net",
    "realtor-node",
    "realtor-runner",
    "realtor-sim",
    "realtor-simcore",
    "realtor-workload",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn manifests() -> Vec<PathBuf> {
    let root = repo_root();
    let mut out = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let m = dir.join("Cargo.toml");
        if m.is_file() {
            out.push(m);
        }
    }
    out
}

/// Crate names declared in any `[dependencies]`-like section of a
/// manifest, with the section they came from.
fn declared_deps(manifest: &Path) -> Vec<(String, String)> {
    let text = fs::read_to_string(manifest).expect("read manifest");
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let in_dep_section = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || section == "workspace.dependencies"
            || (section.starts_with("target.") && section.ends_with("dependencies"));
        if !in_dep_section {
            continue;
        }
        if let Some((key, _)) = line.split_once('=') {
            // `name.workspace = true` is a dotted key for crate `name`.
            let name = key.split('.').next().unwrap_or(key);
            out.push((name.trim().trim_matches('"').to_string(), section.clone()));
        }
    }
    out
}

#[test]
fn every_declared_dependency_is_in_tree() {
    for manifest in manifests() {
        for (dep, section) in declared_deps(&manifest) {
            assert!(
                dep.starts_with(IN_TREE_PREFIX),
                "{} declares external dependency `{dep}` in [{section}] — \
                 the workspace is hermetic; vendor the functionality in-tree instead",
                manifest.display()
            );
        }
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Does `text` name `ident` as a whole identifier?
fn names_ident(text: &str, ident: &str) -> bool {
    text.match_indices(ident).any(|(at, _)| {
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        !text[..at].ends_with(is_ident) && !text[at + ident.len()..].starts_with(is_ident)
    })
}

#[test]
fn every_in_tree_dependency_is_used() {
    let mut unused = Vec::new();
    for manifest in manifests() {
        let dir = manifest.parent().expect("manifest dir");
        let mut sources = Vec::new();
        for sub in ["src", "tests", "benches", "examples"] {
            rust_sources(&dir.join(sub), &mut sources);
        }
        let text = sources
            .iter()
            .map(|p| fs::read_to_string(p).expect("read source"))
            .collect::<Vec<_>>()
            .join("\n");
        for (dep, section) in declared_deps(&manifest) {
            // The root manifest's workspace table declares, it does not use.
            if section == "workspace.dependencies" || !dep.starts_with(IN_TREE_PREFIX) {
                continue;
            }
            if !names_ident(&text, &dep.replace('-', "_")) {
                unused.push(format!("{} [{section}] {dep}", manifest.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared but named by no source under src/, tests/, benches/ or examples/ \
         — drop these dependencies:\n{}",
        unused.join("\n")
    );
}

#[test]
fn no_patch_or_registry_sections() {
    for manifest in manifests() {
        let text = fs::read_to_string(&manifest).expect("read manifest");
        for line in text.lines() {
            let line = line.trim();
            assert!(
                !line.starts_with("[patch") && !line.starts_with("[registries"),
                "{} contains `{line}` — external sources are not allowed",
                manifest.display()
            );
        }
    }
}

#[test]
fn lockfile_contains_only_workspace_packages() {
    let lock = fs::read_to_string(repo_root().join("Cargo.lock"))
        .expect("Cargo.lock must be committed for reproducible offline builds");
    let mut packages = Vec::new();
    for line in lock.lines() {
        if let Some(name) = line.strip_prefix("name = ") {
            packages.push(name.trim_matches('"').to_string());
        }
        // Workspace path dependencies carry no `source`; any source line
        // means a registry or git package entered the graph.
        assert!(
            !line.starts_with("source = "),
            "Cargo.lock records an external source: {line}"
        );
        assert!(
            !line.starts_with("checksum = "),
            "Cargo.lock records a registry checksum: {line}"
        );
    }
    assert!(!packages.is_empty(), "Cargo.lock lists no packages");
    for p in &packages {
        assert!(
            WORKSPACE_PACKAGES.contains(&p.as_str()),
            "Cargo.lock lists non-workspace package `{p}`"
        );
    }
}

#[test]
fn workspace_builds_with_vendored_code_only() {
    // Spot-check the public seams the de-externalization introduced: the
    // in-tree PRNG, property harness, codec and bench runner are reachable
    // from the root crate's dependency graph.
    use realtor::simcore::check::{forall, gen};
    use realtor::simcore::SimRng;

    let mut a = SimRng::stream(7, "hermetic");
    let mut b = SimRng::stream(7, "hermetic");
    assert_eq!(a.u64(), b.u64(), "in-tree PRNG must be deterministic");
    forall(
        "hermetic_smoke",
        1,
        16,
        |r| gen::u64_in(r, 0, 10),
        |&x| {
            if x < 10 {
                Ok(())
            } else {
                Err(format!("{x} out of range"))
            }
        },
    );
}
