#include "src/service/compile_cache.h"

#include <chrono>
#include <cstddef>
#include <limits>
#include <utility>

#include "src/base/hash.h"
#include "src/core/nfa_dtd.h"
#include "src/schema/canonical.h"
#include "src/td/canonical.h"
#include "src/td/compile_selectors.h"

namespace xtc {
namespace {

// Flat overhead charged per artifact on top of the measured automata bytes:
// the canonical key strings, map nodes, and the artifact struct itself.
constexpr std::size_t kEntryBaseBytes = 1024;

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CompileCache::CompileCache() : CompileCache(Options()) {}

CompileCache::CompileCache(const Options& options) : options_(options) {
  std::size_t shards = options.shards == 0 ? 1 : options.shards;
  if (shards > 4096) shards = 4096;
  shard_count_ = RoundUpPow2(shards);
  shard_mask_ = shard_count_ - 1;
  shard_budget_ = options_.max_bytes / shard_count_;
  shards_ = std::make_unique<Shard[]>(shard_count_);
}

std::unique_lock<std::mutex> CompileCache::LockCounted(
    std::mutex& mu, std::atomic<std::uint64_t>& lock_waits) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Convoy telemetry: someone else holds the writer lock, so this
    // acquisition will block. The count approximates contended waits, not
    // wait time — enough to see a convoy form under the loadgen.
    lock_waits.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

Budget CompileCache::MakeCompileBudget(std::uint64_t deadline_cap_ms) const {
  Budget budget;
  if (options_.compile_max_bytes != 0) {
    budget.set_max_bytes(options_.compile_max_bytes);
  }
  // The effective compile deadline is the tighter of the configured
  // ceiling and the caller's remaining patience (deadline propagation).
  std::uint64_t deadline_ms = options_.compile_deadline_ms;
  if (deadline_cap_ms != 0 &&
      (deadline_ms == 0 || deadline_cap_ms < deadline_ms)) {
    deadline_ms = deadline_cap_ms;
  }
  if (deadline_ms != 0) {
    budget.set_deadline(std::chrono::milliseconds(deadline_ms));
  }
  return budget;
}

std::string CompileCache::UniverseKeyOf(const Alphabet& alphabet) const {
  // Names never contain '\n' (every parser in the repo shares the
  // [A-Za-z0-9_#$.:-] name charset), so the join is injective.
  std::string key;
  for (int i = 0; i < alphabet.size(); ++i) {
    key += alphabet.Name(i);
    key += '\n';
  }
  return key;
}

void CompileCache::PublishUniversesLocked() {
  std::vector<std::shared_ptr<UniverseEntry>> entries;
  entries.reserve(universes_.size());
  for (const auto& [key, entry] : universes_) entries.push_back(entry);
  universe_snapshot_.Publish(SnapshotTable<UniverseEntry>::Build(
      std::move(entries)));
}

void CompileCache::CascadeEvictUniverseLocked(const std::string& universe_key) {
  // Cascade: artifacts of the evicted universe reference an Alphabet
  // object that a later identical universe would NOT be (pointer
  // identity), so they must go with it — in every shard. Lock order is
  // universe_mu_ (held by the caller) then one shard mu at a time.
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    auto lock = LockCounted(shard.mu, shard.lock_waits);
    std::vector<std::string> stale;
    for (const auto& [entry_key, entry] : shard.entries) {
      if (entry->universe_key == universe_key) stale.push_back(entry_key);
    }
    if (stale.empty()) continue;
    for (const std::string& entry_key : stale) EraseLocked(shard, entry_key);
    PublishLocked(shard);
  }
}

std::shared_ptr<Alphabet> CompileCache::GetOrCreateAlphabet(
    const std::vector<std::string>& universe) {
  std::string key;
  for (const std::string& name : universe) {
    key += name;
    key += '\n';
  }
  const std::uint64_t hash = HashBytes(key);
  // Warm path: snapshot acquire, no mutex. Recency is recorded with a
  // relaxed stamp store so the count-capped eviction below stays LRU-ish.
  if (auto table = universe_snapshot_.Acquire()) {
    if (UniverseEntry* entry = table->Find(hash, key)) {
      entry->last_used.store(NextStamp(), std::memory_order_relaxed);
      return entry->alphabet;
    }
  }
  auto lock = LockCounted(universe_mu_, universe_lock_waits_);
  if (auto it = universes_.find(key); it != universes_.end()) {
    it->second->last_used.store(NextStamp(), std::memory_order_relaxed);
    return it->second->alphabet;
  }
  auto entry = std::make_shared<UniverseEntry>();
  entry->key = key;
  entry->hash = hash;
  entry->alphabet = std::make_shared<Alphabet>();
  for (const std::string& name : universe) entry->alphabet->Intern(name);
  entry->last_used.store(NextStamp(), std::memory_order_relaxed);
  std::shared_ptr<Alphabet> alphabet = entry->alphabet;
  universes_.emplace(std::move(key), std::move(entry));
  while (universes_.size() > options_.max_universes) {
    // Evict the stalest universe (the just-created one is by construction
    // the freshest stamp, so it always survives).
    auto victim = universes_.end();
    std::uint64_t coldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = universes_.begin(); it != universes_.end(); ++it) {
      const std::uint64_t stamp =
          it->second->last_used.load(std::memory_order_relaxed);
      if (stamp < coldest) {
        coldest = stamp;
        victim = it;
      }
    }
    if (victim == universes_.end()) break;
    CascadeEvictUniverseLocked(victim->first);
    universes_.erase(victim);
  }
  PublishUniversesLocked();
  return alphabet;
}

std::shared_ptr<CompileCache::CacheEntry> CompileCache::FindLocked(
    Shard& shard, const std::string& key) {
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second;
}

void CompileCache::InsertLocked(Shard& shard,
                                std::shared_ptr<CacheEntry> entry) {
  shard.bytes += entry->bytes;
  total_bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
  entry->last_used.store(NextStamp(), std::memory_order_relaxed);
  std::string key = entry->key;
  shard.entries.emplace(std::move(key), std::move(entry));
}

void CompileCache::EraseLocked(Shard& shard, const std::string& key) {
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  shard.bytes -= it->second->bytes;
  total_bytes_.fetch_sub(it->second->bytes, std::memory_order_relaxed);
  shard.entries.erase(it);
}

void CompileCache::EvictShardOverflowLocked(Shard& shard,
                                            const std::string& protect) {
  // Evict stalest-first until under the shard budget; the just-inserted
  // entry always survives locally (the global reconcile pass below it may
  // still drop it once it is no longer the freshest).
  while (shard.bytes > shard_budget_) {
    std::string victim_key;
    bool found = false;
    std::uint64_t coldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [entry_key, entry] : shard.entries) {
      if (entry_key == protect) continue;
      const std::uint64_t stamp =
          entry->last_used.load(std::memory_order_relaxed);
      if (stamp < coldest) {
        coldest = stamp;
        victim_key = entry_key;
        found = true;
      }
    }
    if (!found) break;
    EraseLocked(shard, victim_key);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void CompileCache::PublishLocked(Shard& shard) {
  std::vector<std::shared_ptr<CacheEntry>> entries;
  entries.reserve(shard.entries.size());
  for (const auto& [key, entry] : shard.entries) entries.push_back(entry);
  shard.snapshot.Publish(SnapshotTable<CacheEntry>::Build(std::move(entries)));
}

void CompileCache::ReconcileGlobalBytes(const std::string& protect) {
  // Per-shard budgets sum to the global ceiling, but the newest-entry
  // carve-out lets an individual shard run over its slice; reconcile by
  // evicting the globally coldest entries (approximate LRU over the stamp
  // clock) until the total fits. One shard lock at a time, never nested.
  while (total_bytes_.load(std::memory_order_relaxed) > options_.max_bytes) {
    std::size_t victim_shard = shard_count_;
    std::string victim_key;
    std::uint64_t coldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < shard_count_; ++i) {
      Shard& shard = shards_[i];
      auto lock = LockCounted(shard.mu, shard.lock_waits);
      for (const auto& [entry_key, entry] : shard.entries) {
        if (entry_key == protect) continue;
        const std::uint64_t stamp =
            entry->last_used.load(std::memory_order_relaxed);
        if (stamp < coldest) {
          coldest = stamp;
          victim_shard = i;
          victim_key = entry_key;
        }
      }
    }
    if (victim_shard == shard_count_) break;  // only the protected entry left
    Shard& shard = shards_[victim_shard];
    auto lock = LockCounted(shard.mu, shard.lock_waits);
    if (shard.entries.find(victim_key) == shard.entries.end()) {
      // A racing writer got there first; its own reconcile pass owns the
      // remainder — bail instead of rescanning forever.
      break;
    }
    EraseLocked(shard, victim_key);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    PublishLocked(shard);
  }
}

StatusOr<std::shared_ptr<const CompiledSchema>>
CompileCache::GetOrCompileSchema(const SchemaSpec& spec,
                                 const std::shared_ptr<Alphabet>& alphabet,
                                 bool* cache_hit,
                                 std::uint64_t deadline_cap_ms) {
  if (cache_hit != nullptr) *cache_hit = false;
  // The skeleton build (parse + Glushkov) is cheap and performs no
  // interning: the universe alphabet already contains every name the spec
  // can mention (CollectUniverse derived it from this very spec), so
  // concurrent skeleton builds against the shared alphabet are pure reads.
  XTC_ASSIGN_OR_RETURN(Dtd skeleton, BuildSchemaSkeleton(spec, alphabet.get()));
  std::string key = CanonicalDtdText(skeleton);
  std::uint64_t hash = HashBytes(key);
  Shard& shard = ShardOf(hash);
  // Warm path: one atomic snapshot acquire, an immutable-table probe, and
  // a relaxed recency stamp — no mutex. This is the dominant serving case
  // (warm@4threads = 17x cold@1 per BENCH_pr3), so it must scale with
  // cores instead of convoying on a lock.
  if (auto table = shard.snapshot.Acquire()) {
    if (CacheEntry* entry = table->Find(hash, key)) {
      if (entry->schema != nullptr && entry->schema->alphabet == alphabet) {
        entry->last_used.store(NextStamp(), std::memory_order_relaxed);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        shard.snapshot_hits.fetch_add(1, std::memory_order_relaxed);
        if (cache_hit != nullptr) *cache_hit = true;
        return entry->schema;
      }
      // Stale generation (or a torn race with an eviction): re-check under
      // the writer lock below before recompiling.
    }
  }
  {
    auto lock = LockCounted(shard.mu, shard.lock_waits);
    if (auto entry = FindLocked(shard, key); entry != nullptr) {
      if (entry->schema != nullptr && entry->schema->alphabet == alphabet) {
        // Published after our snapshot acquire (or the snapshot probe
        // raced): still a warm hit, just served under the lock.
        entry->last_used.store(NextStamp(), std::memory_order_relaxed);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        if (cache_hit != nullptr) *cache_hit = true;
        return entry->schema;
      }
      // Stale generation: the entry was compiled against a prior Alphabet
      // instance of this universe (inserted by a worker that raced a
      // cascade eviction). Engines assert alphabet pointer identity, so it
      // is unusable with the caller's alphabet — drop it and recompile.
      EraseLocked(shard, key);
      PublishLocked(shard);
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
  }

  // Compile outside the lock: subset construction + minimization +
  // inhabitation, and determinization for non-DFA schemas — the expensive,
  // worst-case-exponential work the cache exists to amortize.
  Budget budget = MakeCompileBudget(deadline_cap_ms);
  auto artifact = std::make_shared<CompiledSchema>();
  artifact->alphabet = alphabet;
  artifact->key = key;
  artifact->hash = hash;
  auto dtd = std::make_shared<Dtd>(std::move(skeleton));
  XTC_RETURN_IF_ERROR(dtd->Compile(&budget));
  if (!dtd->IsDfaDtd()) {
    XTC_ASSIGN_OR_RETURN(
        Dtd det, DeterminizeDtd(*dtd, options_.max_dfa_states, &budget));
    auto det_ptr = std::make_shared<Dtd>(std::move(det));
    XTC_RETURN_IF_ERROR(det_ptr->Compile(&budget));
    artifact->determinized = std::move(det_ptr);
  }
  artifact->dtd = std::move(dtd);
  artifact->bytes = kEntryBaseBytes + 2 * key.size() +
                    static_cast<std::size_t>(budget.bytes_charged()) +
                    artifact->dtd->Size() * sizeof(int);

  {
    auto lock = LockCounted(shard.mu, shard.lock_waits);
    if (auto entry = FindLocked(shard, key); entry != nullptr) {
      if (entry->schema != nullptr && entry->schema->alphabet == alphabet) {
        // A concurrent worker compiled the same content first; adopt its
        // artifact so equal content has one pointer identity cache-wide.
        return entry->schema;
      }
      EraseLocked(shard, key);  // stale generation; replace with ours below
    }
    auto entry = std::make_shared<CacheEntry>();
    entry->key = key;
    entry->hash = hash;
    entry->universe_key = UniverseKeyOf(*alphabet);
    entry->schema = artifact;
    entry->bytes = artifact->bytes;
    InsertLocked(shard, std::move(entry));
    EvictShardOverflowLocked(shard, key);
    PublishLocked(shard);
  }
  ReconcileGlobalBytes(key);
  return std::shared_ptr<const CompiledSchema>(artifact);
}

StatusOr<std::shared_ptr<const CompiledTransducer>>
CompileCache::GetOrCompileTransducer(const TransducerSpec& spec,
                                     const std::shared_ptr<Alphabet>& alphabet,
                                     bool* cache_hit,
                                     std::uint64_t deadline_cap_ms) {
  // Selector compilation and width analysis are polynomial (Theorems
  // 23/29, Proposition 16) — no budget hooks to cap, unlike the
  // worst-case-exponential schema determinization.
  (void)deadline_cap_ms;
  if (cache_hit != nullptr) *cache_hit = false;
  XTC_ASSIGN_OR_RETURN(Transducer skeleton,
                       BuildTransducerSkeleton(spec, alphabet.get()));
  std::string key = CanonicalTransducerText(skeleton);
  std::uint64_t hash = HashBytes(key);
  Shard& shard = ShardOf(hash);
  if (auto table = shard.snapshot.Acquire()) {
    if (CacheEntry* entry = table->Find(hash, key)) {
      if (entry->transducer != nullptr &&
          entry->transducer->alphabet == alphabet) {
        entry->last_used.store(NextStamp(), std::memory_order_relaxed);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        shard.snapshot_hits.fetch_add(1, std::memory_order_relaxed);
        if (cache_hit != nullptr) *cache_hit = true;
        return entry->transducer;
      }
    }
  }
  {
    auto lock = LockCounted(shard.mu, shard.lock_waits);
    if (auto entry = FindLocked(shard, key); entry != nullptr) {
      if (entry->transducer != nullptr &&
          entry->transducer->alphabet == alphabet) {
        entry->last_used.store(NextStamp(), std::memory_order_relaxed);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        if (cache_hit != nullptr) *cache_hit = true;
        return entry->transducer;
      }
      EraseLocked(shard, key);  // stale generation (see GetOrCompileSchema)
      PublishLocked(shard);
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
  }

  auto artifact = std::make_shared<CompiledTransducer>();
  artifact->alphabet = alphabet;
  artifact->key = key;
  artifact->hash = hash;
  auto original = std::make_shared<Transducer>(std::move(skeleton));
  if (original->HasSelectors()) {
    XTC_ASSIGN_OR_RETURN(Transducer compiled, CompileSelectors(*original));
    artifact->selector_free =
        std::make_shared<const Transducer>(std::move(compiled));
  } else {
    artifact->selector_free = original;
  }
  artifact->original = std::move(original);
  artifact->widths = AnalyzeWidths(*artifact->selector_free);
  artifact->bytes =
      kEntryBaseBytes + 2 * key.size() +
      (artifact->original->Size() + artifact->selector_free->Size()) * 64;

  {
    auto lock = LockCounted(shard.mu, shard.lock_waits);
    if (auto entry = FindLocked(shard, key); entry != nullptr) {
      if (entry->transducer != nullptr &&
          entry->transducer->alphabet == alphabet) {
        return entry->transducer;
      }
      EraseLocked(shard, key);  // stale generation; replace with ours below
    }
    auto entry = std::make_shared<CacheEntry>();
    entry->key = key;
    entry->hash = hash;
    entry->universe_key = UniverseKeyOf(*alphabet);
    entry->transducer = artifact;
    entry->bytes = artifact->bytes;
    InsertLocked(shard, std::move(entry));
    EvictShardOverflowLocked(shard, key);
    PublishLocked(shard);
  }
  ReconcileGlobalBytes(key);
  return std::shared_ptr<const CompiledTransducer>(artifact);
}

std::shared_ptr<const LazySnapshot> CompileCache::GetLazySnapshot(
    const std::string& key) {
  // Namespaced so a snapshot key can never alias a canonical-text artifact
  // key ('\n' ends the prefix; canonical texts never start with "lazy\n").
  const std::string full_key = "lazy\n" + key;
  const std::uint64_t hash = HashBytes(full_key);
  Shard& shard = ShardOf(hash);
  if (auto table = shard.snapshot.Acquire()) {
    if (CacheEntry* entry = table->Find(hash, full_key)) {
      if (entry->lazy != nullptr) {
        entry->last_used.store(NextStamp(), std::memory_order_relaxed);
        shard.lazy_hits.fetch_add(1, std::memory_order_relaxed);
        shard.snapshot_hits.fetch_add(1, std::memory_order_relaxed);
        return entry->lazy;
      }
    }
  }
  auto lock = LockCounted(shard.mu, shard.lock_waits);
  if (auto entry = FindLocked(shard, full_key);
      entry != nullptr && entry->lazy != nullptr) {
    entry->last_used.store(NextStamp(), std::memory_order_relaxed);
    shard.lazy_hits.fetch_add(1, std::memory_order_relaxed);
    return entry->lazy;
  }
  shard.lazy_misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void CompileCache::PutLazySnapshot(
    const std::string& key, std::shared_ptr<const LazySnapshot> snapshot) {
  if (snapshot == nullptr) return;
  std::string full_key = "lazy\n" + key;
  const std::uint64_t hash = HashBytes(full_key);
  Shard& shard = ShardOf(hash);
  {
    auto lock = LockCounted(shard.mu, shard.lock_waits);
    if (auto entry = FindLocked(shard, full_key); entry != nullptr) {
      // First insert wins; refresh recency so the kept table stays warm.
      entry->last_used.store(NextStamp(), std::memory_order_relaxed);
      return;
    }
    auto entry = std::make_shared<CacheEntry>();
    entry->key = full_key;
    entry->hash = hash;
    entry->bytes =
        kEntryBaseBytes + 2 * full_key.size() + snapshot->ApproxBytes();
    entry->lazy = std::move(snapshot);
    InsertLocked(shard, std::move(entry));
    EvictShardOverflowLocked(shard, full_key);
    PublishLocked(shard);
  }
  ReconcileGlobalBytes(full_key);
}

CompileCache::Stats CompileCache::stats() const {
  Stats stats;
  stats.shards = shard_count_;
  stats.per_shard.reserve(shard_count_);
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    ShardStats per;
    per.hits = shard.hits.load(std::memory_order_relaxed);
    per.misses = shard.misses.load(std::memory_order_relaxed);
    per.evictions = shard.evictions.load(std::memory_order_relaxed);
    per.snapshot_hits = shard.snapshot_hits.load(std::memory_order_relaxed);
    per.lock_waits = shard.lock_waits.load(std::memory_order_relaxed);
    {
      // Plain lock (not LockCounted): a stats scrape contending with a
      // writer is not a serving-path convoy.
      std::lock_guard<std::mutex> lock(shard.mu);
      per.bytes = shard.bytes;
      per.entries = shard.entries.size();
    }
    stats.hits += per.hits;
    stats.misses += per.misses;
    stats.evictions += per.evictions;
    stats.snapshot_hits += per.snapshot_hits;
    stats.lock_waits += per.lock_waits;
    stats.lazy_hits += shard.lazy_hits.load(std::memory_order_relaxed);
    stats.lazy_misses += shard.lazy_misses.load(std::memory_order_relaxed);
    stats.bytes += per.bytes;
    stats.entries += per.entries;
    stats.per_shard.push_back(per);
  }
  stats.lock_waits += universe_lock_waits_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(universe_mu_);
    stats.universes = universes_.size();
  }
  return stats;
}

void CompileCache::Clear() {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total_bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.bytes = 0;
    shard.entries.clear();
    shard.snapshot.Publish(nullptr);
  }
  std::lock_guard<std::mutex> lock(universe_mu_);
  universes_.clear();
  universe_snapshot_.Publish(nullptr);
}

}  // namespace xtc
