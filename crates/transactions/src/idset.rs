//! The exact range set the ledgers keep their ids in. It lives in
//! `circus`, where the call runtime keeps thread serials in it too; this
//! path still names it.

pub use circus::IdSet;
