#ifndef XTC_SERVICE_COMPILE_CACHE_H_
#define XTC_SERVICE_COMPILE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/budget.h"
#include "src/base/snapshot.h"
#include "src/base/status.h"
#include "src/fa/alphabet.h"
#include "src/nta/lazy.h"
#include "src/schema/dtd.h"
#include "src/service/request.h"
#include "src/td/transducer.h"
#include "src/td/widths.h"

namespace xtc {

/// An immutable, fully compiled schema artifact. `dtd` has been
/// Dtd::Compile()d (every lazy cache forced) and `determinized` — present
/// exactly when the schema is not DTD(DFA) — likewise, so concurrent reads
/// from service workers are pure. Both share the universe `alphabet`
/// object; the engines compare alphabets by pointer, so artifacts may only
/// be combined with artifacts of the same universe (the cache guarantees
/// this by keying every artifact on the universe's id->name section).
struct CompiledSchema {
  std::shared_ptr<Alphabet> alphabet;
  std::shared_ptr<const Dtd> dtd;
  std::shared_ptr<const Dtd> determinized;  ///< null when dtd->IsDfaDtd()
  std::string key;                          ///< CanonicalDtdText(*dtd)
  std::uint64_t hash = 0;                   ///< HashBytes(key)
  std::size_t bytes = 0;                    ///< accounted size (LRU unit)
};

/// An immutable compiled transducer artifact: the transducer as parsed
/// (selectors intact, for `transform`), its selector-free compilation
/// (Theorems 23/29; identical pointer when already selector-free), and the
/// width analysis of the selector-free form (Proposition 16) so typecheck
/// requests skip re-deriving C and K.
struct CompiledTransducer {
  std::shared_ptr<Alphabet> alphabet;
  std::shared_ptr<const Transducer> original;
  std::shared_ptr<const Transducer> selector_free;
  WidthAnalysis widths;  ///< of *selector_free
  std::string key;       ///< CanonicalTransducerText(*original)
  std::uint64_t hash = 0;
  std::size_t bytes = 0;
};

/// A content-addressed cache of compiled schema/transducer artifacts plus
/// the registry of universe alphabets they are bound to.
///
/// Content addressing: the key is the canonical text of the component
/// (src/schema/canonical.h, src/td/canonical.h), which embeds the universe
/// id->name section; the 64-bit structural hash picks the shard and
/// buckets within it, equality is always by full key comparison — hash
/// collisions can cost a lookup, never alias artifacts.
///
/// Universes: one immutable Alphabet object per distinct sorted name set,
/// interned in sorted order so ids are deterministic. Artifacts hold a
/// shared_ptr to their universe's alphabet; evicting a universe cascades to
/// its artifacts across every shard (a re-created universe is a *different*
/// Alphabet object, and the engines' pointer comparison must never see a
/// stale one).
///
/// Sharding + snapshots: artifacts are hash-partitioned into
/// `Options::shards` shards. Each shard publishes an immutable
/// SnapshotTable of its entries through a SnapshotSlot; warm lookups do an
/// atomic snapshot acquire and probe it — no mutex anywhere on the hit
/// path. Only misses, inserts, evictions, and universe cascades take the
/// per-shard writer mutex, mutate the authoritative map, and publish a new
/// snapshot: the new table is fully built before its release-store
/// publication and immutable after it, the atomic LRU stamps aside. The
/// universe registry gets the same treatment with a single table.
///
/// Eviction: approximate LRU over generation stamps. Every entry carries
/// an atomic `last_used` stamp from a global clock; snapshot hits bump it
/// with a relaxed store (readers never publish). Each shard locally evicts
/// its coldest entries past its budget (`max_bytes / shards`); after an
/// insert the shard reconciles against the global ceiling by evicting the
/// globally coldest entries (one shard lock at a time), so accounted bytes
/// never exceed `max_bytes` — the sum of the shard budgets — except when
/// the just-inserted artifact alone is larger than the whole ceiling (it
/// survives, exactly like the old single-lock cache's newest-entry
/// carve-out). Universe registry is stamp-LRU-capped by count. Evicted
/// artifacts stay alive while in-flight requests hold them.
///
/// Concurrency: warm hits are lock-free snapshot reads; slow paths are
/// per-shard mutexes; compilation runs outside any lock. Two workers
/// missing on the same key both compile; the first insert wins and the
/// loser adopts it — slightly wasteful, never incorrect. Stale-generation
/// detection is preserved: a snapshot or map hit whose artifact alphabet
/// is not the caller's (a worker raced a cascade eviction) is treated as a
/// miss, erased, and recompiled.
///
/// Thread-compatibility: thread-safe (all public methods).
class CompileCache {
 public:
  struct Options {
    /// Artifact byte ceiling before LRU eviction starts (sum of the
    /// per-shard budgets).
    std::size_t max_bytes = std::size_t{64} << 20;
    /// Max distinct universe alphabets kept.
    std::size_t max_universes = 64;
    /// Per-compile Budget byte ceiling: one hostile schema cannot blow up
    /// the process during subset construction (kResourceExhausted instead).
    std::size_t compile_max_bytes = std::size_t{64} << 20;
    /// Per-compile deadline (0 = none).
    std::uint64_t compile_deadline_ms = 0;
    /// Per-rule DFA state cap for DTD(NFA) determinization.
    int max_dfa_states = 1 << 16;
    /// Hash partitions. Rounded up to a power of two, clamped to
    /// [1, 4096]. 1 reproduces the old single-lock strict-LRU behaviour.
    std::size_t shards = 8;
  };

  /// Per-shard contention/occupancy counters (Stats::per_shard).
  struct ShardStats {
    std::uint64_t hits = 0;           ///< warm lookups served (any path)
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t snapshot_hits = 0;  ///< hits served lock-free
    std::uint64_t lock_waits = 0;     ///< contended writer-mutex acquires
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t lazy_hits = 0;    ///< lazy-snapshot lookups served
    std::uint64_t lazy_misses = 0;  ///< lazy-snapshot lookups missed
    std::uint64_t snapshot_hits = 0;  ///< hits served without any mutex
    std::uint64_t lock_waits = 0;   ///< convoy counter: contended acquires
    std::size_t bytes = 0;
    std::size_t entries = 0;
    std::size_t universes = 0;
    std::size_t shards = 0;
    std::vector<ShardStats> per_shard;
  };

  CompileCache();  ///< default Options
  explicit CompileCache(const Options& options);

  /// The shared Alphabet for `universe` (sorted unique names, as returned
  /// by CollectUniverse), creating and registering it on first use. The
  /// returned object is frozen by contract: callers must never Intern into
  /// it (src/base/README.md). Warm lookups are lock-free snapshot reads.
  std::shared_ptr<Alphabet> GetOrCreateAlphabet(
      const std::vector<std::string>& universe);

  /// Returns the compiled artifact for `spec` under `alphabet`, compiling
  /// on miss. `cache_hit` (optional) reports whether this call was served
  /// from cache. Compile failures (budget exhaustion, bad rules) are not
  /// cached; the next request retries. `deadline_cap_ms`, when non-zero,
  /// further bounds the compile's wall clock — deadline propagation: a
  /// request with 20ms of patience left must not pay a multi-second
  /// hostile determinization, even if the configured compile deadline
  /// would allow it.
  StatusOr<std::shared_ptr<const CompiledSchema>> GetOrCompileSchema(
      const SchemaSpec& spec, const std::shared_ptr<Alphabet>& alphabet,
      bool* cache_hit = nullptr, std::uint64_t deadline_cap_ms = 0);

  StatusOr<std::shared_ptr<const CompiledTransducer>> GetOrCompileTransducer(
      const TransducerSpec& spec, const std::shared_ptr<Alphabet>& alphabet,
      bool* cache_hit = nullptr, std::uint64_t deadline_cap_ms = 0);

  /// Returns the cached lazy discovered-state snapshot for `key` (the
  /// caller's content address for the emptiness query, e.g. the joined
  /// artifact keys plus engine parameters), or null on miss. Snapshots are
  /// complete or partial interned state tables of src/nta/lazy.h runs:
  /// resuming from one replays discovery instead of re-deriving it.
  std::shared_ptr<const LazySnapshot> GetLazySnapshot(const std::string& key);

  /// Stores `snapshot` under `key`, byte-accounted on the artifact LRU
  /// (ApproxBytes + flat overhead). First insert wins: equal keys describe
  /// the same query, so the tables are interchangeable and a racing worker
  /// adopts whichever landed first. Null snapshots are ignored.
  void PutLazySnapshot(const std::string& key,
                       std::shared_ptr<const LazySnapshot> snapshot);

  Stats stats() const;

  /// Drops all artifacts and universes (cumulative counters are kept).
  void Clear();

  std::size_t shard_count() const { return shard_count_; }

 private:
  // One cached artifact. Every payload field is immutable after
  // construction; `last_used` is the only mutable field and is a relaxed
  // atomic so lock-free snapshot readers can record recency without the
  // shard writer mutex. Exactly one of schema/transducer/lazy is set.
  // Lazy entries carry an empty universe_key: their tables are interned
  // int tuples with no Alphabet binding, so universe cascade eviction
  // never touches them.
  struct CacheEntry {
    std::string key;
    std::uint64_t hash = 0;
    std::string universe_key;
    std::shared_ptr<const CompiledSchema> schema;
    std::shared_ptr<const CompiledTransducer> transducer;
    std::shared_ptr<const LazySnapshot> lazy;
    std::size_t bytes = 0;
    mutable std::atomic<std::uint64_t> last_used{0};
  };

  // One universe registration, snapshot-readable like CacheEntry.
  struct UniverseEntry {
    std::string key;  // id->name section, '\n'-joined (names never contain it)
    std::uint64_t hash = 0;
    std::shared_ptr<Alphabet> alphabet;
    mutable std::atomic<std::uint64_t> last_used{0};
  };

  // A hash partition. `entries`/`bytes` are the authoritative state,
  // guarded by `mu`; `snapshot` is the published immutable index rebuilt
  // after every mutation. Counters are atomics: hits/snapshot_hits are
  // bumped by lock-free readers, the rest under mu (atomic anyway so
  // stats() needs no lock to read them).
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<CacheEntry>> entries;
    std::size_t bytes = 0;
    SnapshotSlot<const SnapshotTable<CacheEntry>> snapshot;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> snapshot_hits{0};
    std::atomic<std::uint64_t> lock_waits{0};
    std::atomic<std::uint64_t> lazy_hits{0};
    std::atomic<std::uint64_t> lazy_misses{0};
  };

  Budget MakeCompileBudget(std::uint64_t deadline_cap_ms) const;
  std::string UniverseKeyOf(const Alphabet& alphabet) const;

  Shard& ShardOf(std::uint64_t hash) const {
    return shards_[hash & shard_mask_];
  }
  // Locks `mu`, counting a convoy event into `lock_waits` when the lock
  // was contended (try_lock failed and we had to block).
  static std::unique_lock<std::mutex> LockCounted(
      std::mutex& mu, std::atomic<std::uint64_t>& lock_waits);
  std::uint64_t NextStamp() const {
    return clock_.fetch_add(1, std::memory_order_relaxed);
  }

  // All *Locked helpers require the shard's mu held.
  std::shared_ptr<CacheEntry> FindLocked(Shard& shard, const std::string& key);
  void InsertLocked(Shard& shard, std::shared_ptr<CacheEntry> entry);
  void EraseLocked(Shard& shard, const std::string& key);
  // Evicts the shard's coldest entries past its budget; `protect` (the
  // just-inserted key) always survives.
  void EvictShardOverflowLocked(Shard& shard, const std::string& protect);
  void PublishLocked(Shard& shard);
  // Takes one shard lock at a time; evicts globally coldest entries until
  // total accounted bytes fit the global ceiling. Never called with a
  // shard lock held.
  void ReconcileGlobalBytes(const std::string& protect);
  // Erases every artifact bound to `universe_key` in every shard (requires
  // universe_mu_ held; takes shard locks one at a time — the lock order is
  // universe_mu_ before shard mu, never the reverse).
  void CascadeEvictUniverseLocked(const std::string& universe_key);
  void PublishUniversesLocked();

  const Options options_;
  std::size_t shard_count_ = 1;
  std::size_t shard_mask_ = 0;
  std::size_t shard_budget_ = 0;  ///< max_bytes / shard_count_
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::size_t> total_bytes_{0};
  mutable std::atomic<std::uint64_t> clock_{1};  ///< approximate LRU clock

  mutable std::mutex universe_mu_;
  std::unordered_map<std::string, std::shared_ptr<UniverseEntry>> universes_;
  SnapshotSlot<const SnapshotTable<UniverseEntry>> universe_snapshot_;
  std::atomic<std::uint64_t> universe_lock_waits_{0};
};

}  // namespace xtc

#endif  // XTC_SERVICE_COMPILE_CACHE_H_
