//! Workspace symbol table.
//!
//! One pass over every file's token stream and [`crate::regions`] output
//! yields the function universe the whole-workspace rules reason over:
//! `twin_drift` discovers suffix families in it, `coverage_conformance`
//! derives the exported collective surface from it, and the call graph
//! resolves callee names against it. Test-region functions are indexed but
//! flagged, so structural rules can skip them while keeping indices stable.

use std::collections::BTreeMap;

use crate::FileUnit;

/// One function in the workspace.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// The function's name as written.
    pub name: String,
    /// Owning crate's `package.name`.
    pub crate_name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Index of the defining file in the unit list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the item is exported (`pub`, not `pub(crate)`).
    pub is_pub: bool,
    /// Inclusive token span of the body braces in the defining file.
    pub body: (usize, usize),
    /// Whether the definition sits in test code.
    pub in_test: bool,
}

/// The function universe, with a by-name index.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function, in (file, source) order.
    pub fns: Vec<FnSym>,
    /// Name → indices into `fns` (a name may have many definitions:
    /// trait impls, per-module helpers).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Indexes every named function body of every unit.
    pub fn build(units: &[FileUnit]) -> Self {
        let mut table = SymbolTable::default();
        for (file, unit) in units.iter().enumerate() {
            for f in &unit.regions.fns {
                let idx = table.fns.len();
                table.fns.push(FnSym {
                    name: f.name.clone(),
                    crate_name: unit.crate_name.clone(),
                    path: unit.rel_path.clone(),
                    file,
                    line: unit.tokens[f.decl].line,
                    is_pub: f.is_pub,
                    body: f.body,
                    in_test: unit.regions.in_test(f.decl),
                });
                table.by_name.entry(f.name.clone()).or_default().push(idx);
            }
        }
        table
    }

    /// Resolves a callee name from the point of view of `from_crate`:
    /// non-test definitions in the caller's crate win; otherwise a unique
    /// non-test definition anywhere. Ambiguous names resolve to `None` —
    /// the structural rules treat an unresolved callee as opaque rather
    /// than guessing.
    pub fn resolve(&self, name: &str, from_crate: &str) -> Option<usize> {
        let candidates = self.by_name.get(name)?;
        let live: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| !self.fns[i].in_test)
            .collect();
        let local: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| self.fns[i].crate_name == from_crate)
            .collect();
        match (local.len(), live.len()) {
            (1, _) => Some(local[0]),
            (0, 1) => Some(live[0]),
            _ => None,
        }
    }

    /// Whether any non-test definition of `name` lives in `crate_name`
    /// (weaker than [`Self::resolve`]: duplicated per-module helpers like
    /// `member_index` count even though they are ambiguous to resolve).
    pub fn defined_in_crate(&self, name: &str, crate_name: &str) -> bool {
        self.by_name.get(name).is_some_and(|c| {
            c.iter()
                .any(|&i| !self.fns[i].in_test && self.fns[i].crate_name == crate_name)
        })
    }

    /// Non-test functions of `crate_name`, as indices.
    pub fn crate_fns<'a>(&'a self, crate_name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.fns.len())
            .filter(move |&i| !self.fns[i].in_test && self.fns[i].crate_name == crate_name)
    }
}
