//! Resource-key interning for the classification hot path.
//!
//! Every stage of the hierarchy groups millions of requests by string keys —
//! domains, hostnames, script URLs, and `script :: method` pairs. Building
//! an owned `String` per request (four separate `format!("{} :: {}", …)`
//! call sites in the original pipeline) dominates the method-granularity hot
//! path. A [`KeyInterner`] replaces those allocations with cheap [`ResourceKey`]
//! symbols: each distinct string is stored once and every subsequent
//! occurrence resolves to a `Copy` integer id with a single hash lookup and
//! zero allocation.
//!
//! Method keys are composed through [`ResourceKey::method_label`] — the one
//! shared constructor of the `script :: method` format — so producers
//! (hierarchy grouping) and consumers (call-stack residue filtering,
//! surrogate lookup) can never drift apart on the key format. Interning a
//! `(script, method)` pair via [`KeyInterner::intern_method`] does not build
//! the composed string at all once the pair has been seen: the pair of
//! symbol ids is the cache key.

use filterlist::tokens::TokenHashBuilder;
use std::collections::HashMap;
use std::sync::Arc;

/// A `Copy` symbol standing for one interned resource-key string.
///
/// Keys are only meaningful relative to the [`KeyInterner`] that produced
/// them. Ids are assigned in first-seen order, so iterating an interner
/// yields a stable, deterministic ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceKey(u32);

impl ResourceKey {
    /// The separator between the script URL and the method name in a
    /// method-granularity key.
    pub const METHOD_SEPARATOR: &'static str = " :: ";

    /// The one shared constructor of the method-granularity key format.
    ///
    /// Every producer and consumer of `script :: method` keys goes through
    /// this function (directly or via [`KeyInterner::intern_method`]), so
    /// the format cannot drift between the hierarchy, the call-stack
    /// analysis, and the surrogate generator.
    pub fn method_label(script_url: &str, method: &str) -> String {
        let mut out =
            String::with_capacity(script_url.len() + Self::METHOD_SEPARATOR.len() + method.len());
        out.push_str(script_url);
        out.push_str(Self::METHOD_SEPARATOR);
        out.push_str(method);
        out
    }

    /// The position of this key in its interner's first-seen order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A key with an explicit index, for unit tests that exercise
    /// key-indexed structures without an interner.
    #[cfg(test)]
    pub(crate) fn test_key(index: u32) -> Self {
        ResourceKey(index)
    }
}

/// Read-only resolution of verdict-query strings to [`ResourceKey`]s — the
/// lookup half of an interner, without the ability to intern.
///
/// Two implementations exist: the live [`KeyInterner`] (used by the
/// single-threaded [`Sifter`](crate::service::Sifter), whose interner keeps
/// growing between commits) and the immutable [`FrozenKeys`] view carried by
/// every published [`VerdictTable`](crate::table::VerdictTable) (used by
/// concurrent readers, which must never race the writer's interner). The
/// shared verdict walk is generic over this trait, so both paths read
/// through one implementation.
pub trait KeyResolver {
    /// Look up a string's key without interning it.
    fn key(&self, key: &str) -> Option<ResourceKey>;

    /// Look up the composed method key of an already-resolved
    /// `(script, method-name)` pair without building the
    /// `script :: method` string.
    fn method_key(&self, script: ResourceKey, name: ResourceKey) -> Option<ResourceKey>;
}

/// Fold the tail into a fresh base once it holds more than
/// `1 / TAIL_FOLD_DIVISOR` of the base's entries (strings plus method
/// pairs).
///
/// A freeze copies the tail; a fold copies the base once, and the table
/// that retires the old base later frees it. On a 6000-site table
/// (`B` ≈ 205k entries) taking 50-observation held-out commits (`k` ≈ 38
/// new entries each), copying costs about 14 ns per tail entry and a fold
/// about 25 ms in all, so a commit pays about
/// `14 ns · B / (2D) + 25 ms · k · D / B`: least near `D` = 18, and within
/// 10% of that from 12 to 28. Of those, 16 folds about once per 340 such
/// commits.
const TAIL_FOLD_DIVISOR: usize = 16;

/// One layer of a key space: the string and method-pair lookups plus the
/// strings of one contiguous id range, in id order.
#[derive(Debug, Clone, Default)]
struct KeyLayer {
    /// string → id. `Arc<str>` shares storage with `strings`.
    lookup: HashMap<Arc<str>, ResourceKey, TokenHashBuilder>,
    /// `(script id, method id)` → composed method-key id.
    method_pairs: HashMap<(ResourceKey, ResourceKey), ResourceKey, TokenHashBuilder>,
    /// id → string for this layer's id range.
    strings: Vec<Arc<str>>,
}

impl KeyLayer {
    /// Strings plus method pairs: what copying this layer costs.
    fn entries(&self) -> usize {
        self.strings.len() + self.method_pairs.len()
    }

    /// Append a younger layer (whose ids continue this one's range).
    fn absorb(&mut self, younger: KeyLayer) {
        self.lookup.extend(younger.lookup);
        self.method_pairs.extend(younger.method_pairs);
        self.strings.extend(younger.strings);
    }
}

/// An immutable, cheaply shareable snapshot of a [`KeyInterner`]'s lookup
/// state: string → key plus the `(script, name)` → method-key pair cache.
///
/// A [`VerdictTable`](crate::table::VerdictTable) pins one of these so a
/// concurrent reader resolves query strings against exactly the key space
/// its dense class arrays were built for — keys interned after the freeze
/// simply miss, which the verdict walk already treats as "not observed".
///
/// The view is two layers: an `Arc`'d base shared by every view frozen
/// since the last fold (and by the interner itself), and a private copy of
/// the interner's young tail. Freezing copies only the tail, and dropping a
/// retired view frees only its tail, so both are O(keys interned since the
/// last fold), not O(keys). A key resolves with one probe of the base; only
/// a base miss also probes the tail.
#[derive(Debug, Clone, Default)]
pub struct FrozenKeys {
    /// Ids `0..base.strings.len()`.
    base: Arc<KeyLayer>,
    /// The ids after the base's.
    tail: KeyLayer,
}

impl FrozenKeys {
    /// Number of distinct keys the snapshot resolves.
    pub fn len(&self) -> usize {
        self.base.strings.len() + self.tail.strings.len()
    }

    /// `true` when the snapshot resolves no keys at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `(script, name)` pairs the snapshot resolves.
    pub fn pair_count(&self) -> usize {
        self.base.method_pairs.len() + self.tail.method_pairs.len()
    }

    /// Bounds-check an untrusted numeric id (e.g. from a binary wire
    /// request) into a [`ResourceKey`] of this snapshot. `None` for ids the
    /// snapshot never assigned — the safe "unknown key" answer, never a
    /// panic.
    pub fn key_for_id(&self, id: u32) -> Option<ResourceKey> {
        ((id as usize) < self.len()).then_some(ResourceKey(id))
    }

    /// Iterate `(key, string)` pairs in dense id order — the export shape
    /// of a key-interning handshake (`GET /v1/keys`).
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKey, &str)> {
        self.base
            .strings
            .iter()
            .chain(&self.tail.strings)
            .enumerate()
            .map(|(i, s)| (ResourceKey(i as u32), s.as_ref()))
    }

    /// The string of a dense key id, shared (refcount bump, no copy), or
    /// `None` for ids the snapshot never assigned. This is how a full
    /// snapshot resolves class-table slots back to key strings.
    pub fn shared_string_for_id(&self, id: u32) -> Option<Arc<str>> {
        self.string(id as usize).cloned()
    }

    fn string(&self, index: usize) -> Option<&Arc<str>> {
        let base = self.base.strings.len();
        if index < base {
            self.base.strings.get(index)
        } else {
            self.tail.strings.get(index - base)
        }
    }
}

impl KeyResolver for FrozenKeys {
    fn key(&self, key: &str) -> Option<ResourceKey> {
        self.base
            .lookup
            .get(key)
            .or_else(|| self.tail.lookup.get(key))
            .copied()
    }

    fn method_key(&self, script: ResourceKey, name: ResourceKey) -> Option<ResourceKey> {
        let pair = (script, name);
        self.base
            .method_pairs
            .get(&pair)
            .or_else(|| self.tail.method_pairs.get(&pair))
            .copied()
    }
}

/// An append-only string interner for resource keys.
///
/// New keys go to the young tail of a two-layer key space (see
/// [`FrozenKeys`]); [`KeyInterner::freeze`] folds the tail into the shared
/// base once it outgrows `1 / TAIL_FOLD_DIVISOR` of it. An interner that
/// is never frozen — the batch classifiers' — keeps every key in its one
/// tail layer, probing an empty base for free.
///
/// Both lookup maps use the cheap FNV-based [`TokenHashBuilder`] rather
/// than SipHash: interning sits on the hot paths of the labeling memo
/// cache and the classification stage, where hash-flooding resistance buys
/// nothing and the default hasher's setup cost is measurable.
#[derive(Debug, Clone, Default)]
pub struct KeyInterner {
    /// The live key space: the shared base plus the growing tail.
    keys: FrozenKeys,
    /// The last view [`KeyInterner::freeze`] handed out, while nothing has
    /// been interned since.
    frozen: Option<Arc<FrozenKeys>>,
}

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `capacity` distinct keys.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut interner = KeyInterner::default();
        interner.keys.tail = KeyLayer {
            lookup: HashMap::with_capacity_and_hasher(capacity, TokenHashBuilder),
            method_pairs: HashMap::default(),
            strings: Vec::with_capacity(capacity),
        };
        interner
    }

    /// Intern a string, returning its symbol. Allocates only the first time
    /// a given string is seen.
    pub fn intern(&mut self, key: &str) -> ResourceKey {
        if let Some(id) = self.keys.key(key) {
            return id;
        }
        let id = ResourceKey(u32::try_from(self.len()).expect("more than u32::MAX interned keys"));
        let stored: Arc<str> = Arc::from(key);
        self.keys.tail.strings.push(Arc::clone(&stored));
        self.keys.tail.lookup.insert(stored, id);
        self.frozen = None;
        id
    }

    /// Intern the method-granularity key for a `(script, method)` pair.
    ///
    /// After the first occurrence of a pair, this is two hash lookups on
    /// `Copy` keys — the composed `script :: method` string is never rebuilt.
    pub fn intern_method(&mut self, script_url: &str, method: &str) -> ResourceKey {
        let (script, name) = (self.intern(script_url), self.intern(method));
        if let Some(id) = self.keys.method_key(script, name) {
            return id;
        }
        let composed = ResourceKey::method_label(script_url, method);
        let id = self.intern(&composed);
        self.keys.tail.method_pairs.insert((script, name), id);
        self.frozen = None;
        id
    }

    /// Look up a string without interning it.
    pub fn get(&self, key: &str) -> Option<ResourceKey> {
        self.keys.key(key)
    }

    /// Look up the method-granularity key of a `(script, method)` pair
    /// without interning — and without building the composed
    /// `script :: method` string: three borrowed hash probes, zero
    /// allocation. This is the serving hot path of
    /// [`Sifter::verdict`](crate::service::Sifter::verdict).
    ///
    /// Returns `None` for pairs never seen by [`KeyInterner::intern_method`]
    /// (interning only the composed string does not file the pair).
    pub fn get_method(&self, script_url: &str, method: &str) -> Option<ResourceKey> {
        self.keys
            .method_key(self.get(script_url)?, self.get(method)?)
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `key` came from a different interner and is out of range.
    pub fn resolve(&self, key: ResourceKey) -> &str {
        self.shared(key)
    }

    /// Resolve a symbol to a shared handle on its string — a refcount bump,
    /// no copy. Lets callers holding a lock around the interner defer any
    /// real string copy until after the lock is released.
    ///
    /// # Panics
    /// Panics if `key` came from a different interner and is out of range.
    pub fn resolve_shared(&self, key: ResourceKey) -> Arc<str> {
        Arc::clone(self.shared(key))
    }

    fn shared(&self, key: ResourceKey) -> &Arc<str> {
        self.keys
            .string(key.index())
            .expect("resource key out of range for this interner")
    }

    /// Snapshot the lookup state as an immutable [`FrozenKeys`] view. See
    /// the [`FrozenKeys`] docs for cost and staleness semantics.
    ///
    /// Returns the previous view again while nothing has been interned
    /// since, so successive freezes between commits that interned no new
    /// key share one view.
    pub fn freeze(&mut self) -> Arc<FrozenKeys> {
        if let Some(frozen) = &self.frozen {
            return Arc::clone(frozen);
        }
        if self.keys.tail.entries() * TAIL_FOLD_DIVISOR > self.keys.base.entries() {
            // Copies the base only while older views still share it; the
            // first freeze of a freshly trained interner moves its keys.
            let tail = std::mem::take(&mut self.keys.tail);
            Arc::make_mut(&mut self.keys.base).absorb(tail);
        }
        let frozen = Arc::new(self.keys.clone());
        self.frozen = Some(Arc::clone(&frozen));
        frozen
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Number of `(script, name)` method pairs filed by
    /// [`KeyInterner::intern_method`].
    pub fn pair_count(&self) -> usize {
        self.keys.pair_count()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate `(key, string)` pairs in first-seen (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKey, &str)> {
        self.keys.iter()
    }

    /// Strings and pairs in the shared base and in the private tail — how
    /// the fold tests see which layer holds what.
    #[cfg(test)]
    fn layer_entries(&self) -> (usize, usize) {
        (self.keys.base.entries(), self.keys.tail.entries())
    }
}

impl KeyResolver for KeyInterner {
    fn key(&self, key: &str) -> Option<ResourceKey> {
        self.keys.key(key)
    }

    fn method_key(&self, script: ResourceKey, name: ResourceKey) -> Option<ResourceKey> {
        self.keys.method_key(script, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_resolves_to_the_original_string() {
        let mut interner = KeyInterner::new();
        let keys = ["google.com", "cdn.google.com", "https://x.com/a.js"];
        let ids: Vec<ResourceKey> = keys.iter().map(|k| interner.intern(k)).collect();
        for (key, id) in keys.iter().zip(&ids) {
            assert_eq!(interner.resolve(*id), *key);
        }
    }

    #[test]
    fn interning_deduplicates() {
        let mut interner = KeyInterner::new();
        let a = interner.intern("ads.com");
        let b = interner.intern("news.com");
        let a2 = interner.intern("ads.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolved_keys_keep_stable_first_seen_ordering() {
        let mut interner = KeyInterner::new();
        for key in ["zeta", "alpha", "mid", "alpha", "zeta"] {
            interner.intern(key);
        }
        let in_order: Vec<&str> = interner.iter().map(|(_, s)| s).collect();
        assert_eq!(in_order, vec!["zeta", "alpha", "mid"]);
        let indices: Vec<usize> = interner.iter().map(|(k, _)| k.index()).collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn method_keys_match_the_shared_constructor() {
        let mut interner = KeyInterner::new();
        let id = interner.intern_method("https://x.com/clone.js", "m2");
        assert_eq!(
            interner.resolve(id),
            ResourceKey::method_label("https://x.com/clone.js", "m2")
        );
        assert_eq!(interner.resolve(id), "https://x.com/clone.js :: m2");
    }

    #[test]
    fn method_pair_interning_is_idempotent_and_matches_string_interning() {
        let mut interner = KeyInterner::new();
        let via_pair = interner.intern_method("s.js", "run");
        let via_pair_again = interner.intern_method("s.js", "run");
        let via_string = interner.intern(&ResourceKey::method_label("s.js", "run"));
        assert_eq!(via_pair, via_pair_again);
        assert_eq!(via_pair, via_string);
    }

    #[test]
    fn get_does_not_intern() {
        let mut interner = KeyInterner::new();
        assert_eq!(interner.get("missing"), None);
        let id = interner.intern("present");
        assert_eq!(interner.get("present"), Some(id));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn frozen_keys_resolve_exactly_the_state_at_freeze_time() {
        let mut interner = KeyInterner::new();
        let d = interner.intern("ads.com");
        let m = interner.intern_method("s.js", "run");
        let frozen = interner.freeze();
        assert_eq!(frozen.len(), interner.len());
        assert_eq!(frozen.pair_count(), interner.pair_count());
        assert!(!frozen.is_empty());

        // Everything present at freeze time resolves identically through
        // both KeyResolver implementations.
        assert_eq!(frozen.key("ads.com"), Some(d));
        assert_eq!(KeyResolver::key(&interner, "ads.com"), Some(d));
        let s = interner.get("s.js").unwrap();
        let name = interner.get("run").unwrap();
        assert_eq!(frozen.method_key(s, name), Some(m));
        assert_eq!(KeyResolver::method_key(&interner, s, name), Some(m));

        // Keys interned after the freeze miss in the frozen view but hit in
        // the live interner.
        let late = interner.intern("late.com");
        assert_eq!(frozen.key("late.com"), None);
        assert_eq!(KeyResolver::key(&interner, "late.com"), Some(late));
        assert_ne!(frozen.len(), interner.len());

        // Views taken before, at and after tail-to-base folds each resolve
        // exactly their own freeze-time state: the first freeze folds
        // everything, then the tail grows past 1/TAIL_FOLD_DIVISOR of the
        // base every few hundred keys.
        let mut views = vec![(frozen, 4, 1)];
        let mut pairs = vec![(("s.js".to_string(), "run".to_string()), m)];
        let (mut folds, mut unfolded) = (0, 0);
        for round in 0..600 {
            interner.intern(&format!("d{round}.com"));
            let (script, name) = (format!("s{}.js", round % 7), format!("m{round}"));
            let method = interner.intern_method(&script, &name);
            pairs.push(((script, name), method));
            if round % 5 == 0 {
                let view = interner.freeze();
                match interner.layer_entries() {
                    (_, 0) => folds += 1,
                    _ => unfolded += 1,
                }
                // An unchanged interner hands the same view out again.
                assert!(Arc::ptr_eq(&view, &interner.freeze()));
                views.push((view, interner.len(), pairs.len()));
            }
        }
        assert!(
            folds >= 3 && unfolded >= 3,
            "{folds} folds, {unfolded} tail-only freezes"
        );

        let all: Vec<(ResourceKey, String)> =
            interner.iter().map(|(k, s)| (k, s.to_string())).collect();
        for (view, len, pair_count) in &views {
            assert_eq!((view.len(), view.pair_count()), (*len, *pair_count));
            let listed: Vec<(ResourceKey, String)> =
                view.iter().map(|(k, s)| (k, s.to_string())).collect();
            assert_eq!(listed[..], all[..*len], "iter order is the id order");
            for (at, (key, string)) in all.iter().enumerate() {
                let id = key.index() as u32;
                let known = at < *len;
                assert_eq!(view.key(string), known.then_some(*key));
                assert_eq!(view.key_for_id(id), known.then_some(*key));
                assert_eq!(
                    view.shared_string_for_id(id).as_deref(),
                    known.then_some(string.as_str())
                );
            }
            for (at, ((script, name), method)) in pairs.iter().enumerate() {
                let script = interner.get(script).unwrap();
                let name = interner.get(name).unwrap();
                assert_eq!(
                    view.method_key(script, name),
                    (at < *pair_count).then_some(*method)
                );
            }
        }
    }

    #[test]
    fn frozen_keys_export_a_dense_bounds_checked_id_table() {
        let mut interner = KeyInterner::new();
        for key in ["ads.com", "px.ads.com", "s.js"] {
            interner.intern(key);
        }
        let frozen = interner.freeze();
        // A fold after this freeze must not change what the view exports.
        interner.intern("late.js");
        let folded = interner.freeze();
        assert_eq!(interner.layer_entries(), (4, 0), "the second freeze folds");
        for (view, expected) in [
            (&frozen, &["ads.com", "px.ads.com", "s.js"][..]),
            (&folded, &["ads.com", "px.ads.com", "s.js", "late.js"][..]),
        ] {
            let table: Vec<(usize, &str)> = view.iter().map(|(k, s)| (k.index(), s)).collect();
            let dense: Vec<(usize, &str)> = expected.iter().copied().enumerate().collect();
            assert_eq!(table, dense);
            // Ids round-trip through the bounds check; out-of-range ids
            // miss instead of panicking.
            for (key, string) in view.iter() {
                let id = key.index() as u32;
                assert_eq!(view.key_for_id(id), Some(key));
                assert_eq!(view.key(string), Some(key));
            }
            assert_eq!(view.key_for_id(expected.len() as u32), None);
            assert_eq!(view.key_for_id(u32::MAX), None);
        }
    }

    #[test]
    fn never_frozen_interners_keep_one_layer() {
        let mut interner = KeyInterner::new();
        for key in ["a", "b", "c"] {
            interner.intern(key);
        }
        interner.intern_method("s.js", "run");
        assert_eq!(interner.layer_entries(), (0, interner.len() + 1));
        interner.freeze();
        assert_eq!(interner.layer_entries(), (interner.len() + 1, 0));
    }

    #[test]
    fn get_method_resolves_pairs_without_interning() {
        let mut interner = KeyInterner::new();
        assert_eq!(interner.get_method("s.js", "run"), None);
        let id = interner.intern_method("s.js", "run");
        let len = interner.len();
        assert_eq!(interner.get_method("s.js", "run"), Some(id));
        assert_eq!(interner.get_method("s.js", "other"), None);
        assert_eq!(interner.get_method("other.js", "run"), None);
        assert_eq!(interner.len(), len, "get_method must not intern");
    }
}
