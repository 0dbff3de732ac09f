//! In-memory cloud object store (the S3 / Azure-Blob stand-in).
//!
//! Serverless functions are stateless; the paper's I/O functions persist
//! intermediate data through a cloud object store reached via SDK clients
//! (Listing 1). This module supplies the store itself: buckets of key →
//! bytes with CRUD operations and version counters. It is thread-safe so
//! live-mode containers can hit it from many function threads at once.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Errors returned by object-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The addressed bucket does not exist.
    BucketNotFound(String),
    /// The addressed object does not exist.
    ObjectNotFound {
        /// Bucket that was searched.
        bucket: String,
        /// Missing key.
        key: String,
    },
    /// A bucket with this name already exists.
    BucketExists(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BucketNotFound(b) => write!(f, "bucket not found: {b}"),
            StoreError::ObjectNotFound { bucket, key } => {
                write!(f, "object not found: {bucket}/{key}")
            }
            StoreError::BucketExists(b) => write!(f, "bucket already exists: {b}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Metadata of a stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Size in bytes.
    pub size: u64,
    /// Monotonic version, bumped on every overwrite.
    pub version: u64,
}

#[derive(Debug, Default)]
struct Bucket {
    objects: BTreeMap<String, (Bytes, u64)>,
}

/// A thread-safe in-memory object store.
///
/// Cloning an [`ObjectStore`] yields another handle to the same storage
/// (it is an `Arc` internally), mirroring how many SDK clients point at one
/// service.
///
/// # Examples
///
/// ```
/// use faasbatch_storage::object_store::ObjectStore;
/// use bytes::Bytes;
///
/// let store = ObjectStore::new();
/// store.create_bucket("results")?;
/// store.put("results", "run-1", Bytes::from_static(b"42"))?;
/// assert_eq!(store.get("results", "run-1")?, Bytes::from_static(b"42"));
/// # Ok::<(), faasbatch_storage::object_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    buckets: Arc<RwLock<BTreeMap<String, Bucket>>>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Creates a bucket.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BucketExists`] if the name is taken.
    pub fn create_bucket(&self, name: &str) -> Result<(), StoreError> {
        let mut buckets = self.write();
        if buckets.contains_key(name) {
            return Err(StoreError::BucketExists(name.to_owned()));
        }
        buckets.insert(name.to_owned(), Bucket::default());
        Ok(())
    }

    /// Stores `data` under `bucket`/`key`, returning the new version.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BucketNotFound`] if the bucket is missing.
    pub fn put(&self, bucket: &str, key: &str, data: Bytes) -> Result<u64, StoreError> {
        let mut buckets = self.write();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::BucketNotFound(bucket.to_owned()))?;
        let version = b.objects.get(key).map_or(1, |(_, v)| v + 1);
        b.objects.insert(key.to_owned(), (data, version));
        Ok(version)
    }

    /// Fetches the object at `bucket`/`key`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BucketNotFound`] or [`StoreError::ObjectNotFound`].
    pub fn get(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        let buckets = self.read();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| StoreError::BucketNotFound(bucket.to_owned()))?;
        b.objects
            .get(key)
            .map(|(d, _)| d.clone())
            .ok_or_else(|| StoreError::ObjectNotFound {
                bucket: bucket.to_owned(),
                key: key.to_owned(),
            })
    }

    /// Fetches metadata without copying the payload.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BucketNotFound`] or [`StoreError::ObjectNotFound`].
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        let buckets = self.read();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| StoreError::BucketNotFound(bucket.to_owned()))?;
        b.objects
            .get(key)
            .map(|(d, v)| ObjectMeta {
                size: d.len() as u64,
                version: *v,
            })
            .ok_or_else(|| StoreError::ObjectNotFound {
                bucket: bucket.to_owned(),
                key: key.to_owned(),
            })
    }

    /// Deletes the object, returning whether it existed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BucketNotFound`] if the bucket is missing.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<bool, StoreError> {
        let mut buckets = self.write();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::BucketNotFound(bucket.to_owned()))?;
        Ok(b.objects.remove(key).is_some())
    }

    /// Lists keys in a bucket with the given prefix, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BucketNotFound`] if the bucket is missing.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, StoreError> {
        let buckets = self.read();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| StoreError::BucketNotFound(bucket.to_owned()))?;
        Ok(b.objects
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }

    /// Number of objects across all buckets.
    pub fn object_count(&self) -> usize {
        self.read().values().map(|b| b.objects.len()).sum()
    }

    /// Total stored payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read()
            .values()
            .flat_map(|b| b.objects.values())
            .map(|(d, _)| d.len() as u64)
            .sum()
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Bucket>> {
        self.buckets.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Bucket>> {
        self.buckets.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_bucket() -> ObjectStore {
        let s = ObjectStore::new();
        s.create_bucket("b").unwrap();
        s
    }

    #[test]
    fn crud_roundtrip() {
        let s = store_with_bucket();
        assert_eq!(s.put("b", "k", Bytes::from_static(b"v1")).unwrap(), 1);
        assert_eq!(s.get("b", "k").unwrap(), Bytes::from_static(b"v1"));
        assert_eq!(s.put("b", "k", Bytes::from_static(b"v2")).unwrap(), 2);
        let meta = s.head("b", "k").unwrap();
        assert_eq!(
            meta,
            ObjectMeta {
                size: 2,
                version: 2
            }
        );
        assert!(s.delete("b", "k").unwrap());
        assert!(!s.delete("b", "k").unwrap());
        assert!(matches!(
            s.get("b", "k"),
            Err(StoreError::ObjectNotFound { .. })
        ));
    }

    #[test]
    fn missing_bucket_errors() {
        let s = ObjectStore::new();
        assert_eq!(
            s.put("nope", "k", Bytes::new()),
            Err(StoreError::BucketNotFound("nope".into()))
        );
        assert!(matches!(
            s.get("nope", "k"),
            Err(StoreError::BucketNotFound(_))
        ));
        assert!(matches!(
            s.list("nope", ""),
            Err(StoreError::BucketNotFound(_))
        ));
    }

    #[test]
    fn duplicate_bucket_rejected() {
        let s = store_with_bucket();
        assert_eq!(
            s.create_bucket("b"),
            Err(StoreError::BucketExists("b".into()))
        );
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let s = store_with_bucket();
        for k in ["a/2", "a/1", "b/1"] {
            s.put("b", k, Bytes::new()).unwrap();
        }
        assert_eq!(s.list("b", "a/").unwrap(), vec!["a/1", "a/2"]);
        assert_eq!(s.list("b", "").unwrap().len(), 3);
    }

    #[test]
    fn clones_share_state() {
        let s = store_with_bucket();
        let s2 = s.clone();
        s.put("b", "k", Bytes::from_static(b"x")).unwrap();
        assert_eq!(s2.get("b", "k").unwrap(), Bytes::from_static(b"x"));
    }

    #[test]
    fn accounting_totals() {
        let s = store_with_bucket();
        s.put("b", "k1", Bytes::from(vec![0u8; 10])).unwrap();
        s.put("b", "k2", Bytes::from(vec![0u8; 30])).unwrap();
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.total_bytes(), 40);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let s = store_with_bucket();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let key = format!("t{t}/k{i}");
                        s.put("b", &key, Bytes::from(vec![t as u8; 8])).unwrap();
                        assert_eq!(s.get("b", &key).unwrap().len(), 8);
                    }
                });
            }
        });
        assert_eq!(s.object_count(), 400);
    }

    #[test]
    fn error_display_is_lowercase_and_concise() {
        assert_eq!(
            StoreError::BucketNotFound("x".into()).to_string(),
            "bucket not found: x"
        );
    }
}
