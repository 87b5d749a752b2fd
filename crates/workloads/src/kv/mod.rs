//! A memcached-like in-memory key-value store.
//!
//! The paper's YCSB experiments use Memcached as the backing store (§V-B).
//! This module reproduces its memory behaviour at the level the tiering
//! system sees: a power-of-two-bucket hash table plus a slab allocator,
//! both living in simulated memory, with real bytes stored and verified.
//! A GET touches the bucket page and the item's page(s); a SET touches the
//! bucket page and writes the item; items are slab-allocated in size
//! classes like memcached's. Keys are record numbers, and the host keeps
//! one row per record: where its item and its bucket sit.

mod slab;
mod store;

pub use store::{KvStats, KvStore};
