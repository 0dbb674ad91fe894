//! The application server's VCS-style command surface.
//!
//! "AS currently provides a basic set of VCS commands. A user can pull
//! any specific version by specifying its ID, or may pull the latest
//! version in a branch (including the main master branch). Unlike a
//! typical VCS, AS also provides the ability to retrieve partial
//! versions or evolution history of a specific key" (§2.4).

use crate::error::CoreError;
use crate::model::{PrimaryKey, Record, VersionId};
use crate::plan::QuerySpec;
use crate::store::{CommitRequest, RStore};
use std::collections::BTreeMap;

/// Branch names are plain strings.
pub type BranchName = String;

/// The default branch created by [`ApplicationServer::init`].
pub const MASTER: &str = "master";

/// Changes for a branch commit.
#[derive(Debug, Clone, Default)]
pub struct Changes {
    /// Records to insert or update.
    pub puts: Vec<(PrimaryKey, Vec<u8>)>,
    /// Primary keys to delete.
    pub deletes: Vec<PrimaryKey>,
}

impl Changes {
    /// An empty change set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an insert/update.
    pub fn put(mut self, pk: PrimaryKey, payload: Vec<u8>) -> Self {
        self.puts.push((pk, payload));
        self
    }

    /// Adds a delete.
    pub fn delete(mut self, pk: PrimaryKey) -> Self {
        self.deletes.push(pk);
        self
    }
}

/// The VCS front-end over an [`RStore`].
pub struct ApplicationServer {
    store: RStore,
    branches: BTreeMap<BranchName, VersionId>,
}

impl ApplicationServer {
    /// Wraps a store that already holds data (e.g. after
    /// [`RStore::load_dataset`]); every leaf version becomes a branch
    /// head named `branch-<id>`, and `master` points at the newest
    /// version.
    pub fn attach(store: RStore) -> Self {
        let mut branches = BTreeMap::new();
        if !store.graph().is_empty() {
            for leaf in store.graph().leaves() {
                branches.insert(format!("branch-{}", leaf.as_u32()), leaf);
            }
            let newest = VersionId((store.version_count() - 1) as u32);
            branches.insert(MASTER.to_string(), newest);
        }
        Self { store, branches }
    }

    /// Creates a server over an empty store and commits the initial
    /// records as the root version on `master`.
    pub fn init(
        store: RStore,
        records: impl IntoIterator<Item = (PrimaryKey, Vec<u8>)>,
    ) -> Result<Self, CoreError> {
        let mut server = Self {
            store,
            branches: BTreeMap::new(),
        };
        let root = server.store.commit(CommitRequest::root(records))?;
        server.branches.insert(MASTER.to_string(), root);
        Ok(server)
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &RStore {
        &self.store
    }

    /// Existing branch names, sorted.
    pub fn branches(&self) -> Vec<&str> {
        self.branches.keys().map(String::as_str).collect()
    }

    /// The head version of a branch.
    pub fn head(&self, branch: &str) -> Result<VersionId, CoreError> {
        self.branches
            .get(branch)
            .copied()
            .ok_or_else(|| CoreError::UnknownBranch(branch.to_string()))
    }

    /// Creates a branch pointing at `from`.
    pub fn create_branch(&mut self, name: &str, from: VersionId) -> Result<(), CoreError> {
        if !self.store.graph().contains(from) {
            return Err(CoreError::UnknownVersion(from.as_u32()));
        }
        if self.branches.contains_key(name) {
            return Err(CoreError::BadCommit(format!("branch {name:?} exists")));
        }
        self.branches.insert(name.to_string(), from);
        Ok(())
    }

    /// Commits `changes` on top of a branch head and advances the
    /// branch. Returns the new version id.
    pub fn commit(&mut self, branch: &str, changes: Changes) -> Result<VersionId, CoreError> {
        let head = self.head(branch)?;
        let mut req = CommitRequest::child_of(head);
        for (pk, payload) in changes.puts {
            req = req.put(pk, payload);
        }
        for pk in changes.deletes {
            req = req.delete(pk);
        }
        let v = self.store.commit(req)?;
        self.branches.insert(branch.to_string(), v);
        Ok(v)
    }

    /// Merges branch `other` into `branch` (the delta is expressed
    /// relative to `branch`'s head, paper Fig. 4 semantics).
    pub fn merge(
        &mut self,
        branch: &str,
        other: &str,
        changes: Changes,
    ) -> Result<VersionId, CoreError> {
        let primary = self.head(branch)?;
        let secondary = self.head(other)?;
        let mut req = CommitRequest::merge_of(primary, [secondary]);
        for (pk, payload) in changes.puts {
            req = req.put(pk, payload);
        }
        for pk in changes.deletes {
            req = req.delete(pk);
        }
        let v = self.store.commit(req)?;
        self.branches.insert(branch.to_string(), v);
        Ok(v)
    }

    /// Seals pending commits, then runs one query through the
    /// plan → fetch → extract pipeline. Every pull-style command is a
    /// thin wrapper over this. `&self`: sealing and querying both
    /// work through the store's interior mutability, so pulls from
    /// concurrent readers never serialize on the server value.
    fn pull_spec(&self, spec: QuerySpec) -> Result<Vec<Record>, CoreError> {
        self.store.seal()?;
        self.store.query(spec)
    }

    /// Pulls the latest full version of a branch.
    pub fn pull(&self, branch: &str) -> Result<Vec<Record>, CoreError> {
        let head = self.head(branch)?;
        self.pull_spec(QuerySpec::Version(head))
    }

    /// Pulls a specific version by id.
    pub fn pull_version(&self, v: VersionId) -> Result<Vec<Record>, CoreError> {
        self.pull_spec(QuerySpec::Version(v))
    }

    /// Partial pull: the branch head restricted to a key range.
    pub fn pull_range(
        &self,
        branch: &str,
        lo: PrimaryKey,
        hi: PrimaryKey,
    ) -> Result<Vec<Record>, CoreError> {
        let head = self.head(branch)?;
        self.pull_spec(QuerySpec::Range { lo, hi, v: head })
    }

    /// One record from the branch head.
    pub fn get(&self, branch: &str, pk: PrimaryKey) -> Result<Option<Record>, CoreError> {
        let head = self.head(branch)?;
        Ok(self.pull_spec(QuerySpec::Record { pk, v: head })?.pop())
    }

    /// The evolution history of a key across all versions.
    pub fn evolution(&self, pk: PrimaryKey) -> Result<Vec<Record>, CoreError> {
        self.pull_spec(QuerySpec::Evolution { pk })
    }

    /// The commit log of a branch: versions from the root to the head.
    pub fn log(&self, branch: &str) -> Result<Vec<VersionId>, CoreError> {
        let head = self.head(branch)?;
        Ok(self.store.graph().path_from_root(head))
    }
}
