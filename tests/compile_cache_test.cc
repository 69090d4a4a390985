#include "src/service/compile_cache.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/hash.h"
#include "src/schema/canonical.h"
#include "src/service/replay.h"
#include "src/td/canonical.h"
#include "src/workload/families.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

// A request universe + specs taken from a workload family instance.
struct Wire {
  std::vector<std::string> universe;
  SchemaSpec din;
  SchemaSpec dout;
  TransducerSpec transducer;
};

Wire WireOf(const PaperExample& ex) {
  StatusOr<ServiceRequest> request = TypecheckRequestFromExample(ex);
  XTC_CHECK(request.ok());
  StatusOr<std::vector<std::string>> universe = CollectUniverse(*request);
  XTC_CHECK(universe.ok());
  return Wire{*universe, request->din, request->dout, request->transducer};
}

TEST(CompileCacheTest, SecondLookupHitsAndSharesThePointer) {
  CompileCache cache;
  Wire wire = WireOf(FilterFamily(4));
  std::shared_ptr<Alphabet> alphabet = cache.GetOrCreateAlphabet(wire.universe);

  bool hit = true;
  StatusOr<std::shared_ptr<const CompiledSchema>> first =
      cache.GetOrCompileSchema(wire.din, alphabet, &hit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(hit);
  StatusOr<std::shared_ptr<const CompiledSchema>> second =
      cache.GetOrCompileSchema(wire.din, alphabet, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  // Content addressing: identical content has one pointer identity.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CompileCacheTest, SerializationNoiseDoesNotSplitEntries) {
  CompileCache cache;
  Wire wire = WireOf(FilterFamily(3));
  std::shared_ptr<Alphabet> alphabet = cache.GetOrCreateAlphabet(wire.universe);

  StatusOr<std::shared_ptr<const CompiledSchema>> a =
      cache.GetOrCompileSchema(wire.din, alphabet, nullptr);
  ASSERT_TRUE(a.ok());

  // Same schema with rules reordered and regex whitespace/comma noise:
  // canonicalization must land on the same artifact.
  SchemaSpec noisy = wire.din;
  std::reverse(noisy.rules.begin(), noisy.rules.end());
  for (auto& [symbol, regex] : noisy.rules) {
    std::string spaced;
    for (char c : regex) {
      spaced.push_back(c);
      if (c == ' ') spaced.push_back(' ');
    }
    regex = " " + spaced + " ";
  }
  bool hit = false;
  StatusOr<std::shared_ptr<const CompiledSchema>> b =
      cache.GetOrCompileSchema(noisy, alphabet, &hit);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(hit);
  EXPECT_EQ(a->get(), b->get());
}

TEST(CompileCacheTest, StructurallyDifferentRulesSplitEntries) {
  CompileCache cache;
  SchemaSpec one;
  one.start = "r";
  one.rules = {{"r", "a b"}};
  SchemaSpec two;
  two.start = "r";
  two.rules = {{"r", "b a"}};
  // Same universe for both specs (they mention the same names).
  std::shared_ptr<Alphabet> alphabet =
      cache.GetOrCreateAlphabet({"a", "b", "r"});
  StatusOr<std::shared_ptr<const CompiledSchema>> first =
      cache.GetOrCompileSchema(one, alphabet, nullptr);
  StatusOr<std::shared_ptr<const CompiledSchema>> second =
      cache.GetOrCompileSchema(two, alphabet, nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  EXPECT_NE((*first)->key, (*second)->key);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// The structural-hash equality/collision property over random instances:
// equal canonical text ⟺ equal artifact pointer, and the hash is a pure
// function of the text — artifacts are never aliased by hash value alone
// (lookup is by full key; the hash only buckets).
TEST(CompileCacheTest, StructuralHashPropertyOnRandomInstances) {
  CompileCache cache;
  RandomOptions options;
  std::map<std::string, const CompiledSchema*> by_key;
  std::map<std::uint64_t, std::set<std::string>> keys_by_hash;
  for (std::uint32_t seed = 0; seed < 40; ++seed) {
    PaperExample ex = RandomInstance(seed, options, /*re_plus=*/true);
    StatusOr<SchemaSpec> spec = SerializeSchema(*ex.din);
    ASSERT_TRUE(spec.ok());
    ServiceRequest probe;
    probe.op = ServiceOp::kValidate;
    probe.schema = *spec;
    probe.tree = "x";
    StatusOr<std::vector<std::string>> universe = CollectUniverse(probe);
    ASSERT_TRUE(universe.ok());
    std::shared_ptr<Alphabet> alphabet = cache.GetOrCreateAlphabet(*universe);
    StatusOr<std::shared_ptr<const CompiledSchema>> artifact =
        cache.GetOrCompileSchema(*spec, alphabet, nullptr);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();

    EXPECT_EQ((*artifact)->hash, HashBytes((*artifact)->key));
    auto [it, inserted] = by_key.emplace((*artifact)->key, artifact->get());
    if (!inserted) {
      EXPECT_EQ(it->second, artifact->get());  // equal text → same artifact
    }
    keys_by_hash[(*artifact)->hash].insert((*artifact)->key);
  }
  // If two distinct keys ever landed on one hash (a genuine collision),
  // the map above must still have kept them as distinct artifacts; nothing
  // to assert beyond type safety — but record that the property held for
  // every pair seen.
  for (const auto& [hash, keys] : keys_by_hash) {
    for (const std::string& key : keys) {
      ASSERT_EQ(by_key.count(key), 1u);
    }
  }
}

TEST(CompileCacheTest, LruEvictsUnderBytePressureColdestFirst) {
  CompileCache::Options options;
  options.max_bytes = 1;  // every insert overflows: only the newest survives
  CompileCache cache(options);
  Wire a = WireOf(FilterFamily(3));
  Wire b = WireOf(FilterFamily(4));
  std::shared_ptr<Alphabet> alpha_a = cache.GetOrCreateAlphabet(a.universe);
  std::shared_ptr<Alphabet> alpha_b = cache.GetOrCreateAlphabet(b.universe);

  ASSERT_TRUE(cache.GetOrCompileSchema(a.din, alpha_a, nullptr).ok());
  ASSERT_TRUE(cache.GetOrCompileSchema(b.din, alpha_b, nullptr).ok());
  CompileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1u);

  // The evicted (older) artifact recompiles; the newest is still cached.
  bool hit = true;
  ASSERT_TRUE(cache.GetOrCompileSchema(b.din, alpha_b, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.GetOrCompileSchema(a.din, alpha_a, &hit).ok());
  EXPECT_FALSE(hit);
}

TEST(CompileCacheTest, BytesAreAccountedAndBounded) {
  CompileCache::Options options;
  options.max_bytes = 64 << 10;
  CompileCache cache(options);
  // Distinct schemas with real automata until well past the ceiling.
  for (int n = 2; n < 40; ++n) {
    Wire wire = WireOf(RelabFamily(n));
    std::shared_ptr<Alphabet> alphabet =
        cache.GetOrCreateAlphabet(wire.universe);
    ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, nullptr).ok());
    ASSERT_TRUE(cache.GetOrCompileSchema(wire.dout, alphabet, nullptr).ok());
  }
  CompileCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(CompileCacheTest, UniverseEvictionCascadesToItsArtifacts) {
  CompileCache::Options options;
  options.max_universes = 1;
  CompileCache cache(options);
  Wire a = WireOf(FilterFamily(3));
  Wire b = WireOf(RelabFamily(3));

  std::shared_ptr<Alphabet> alpha_a = cache.GetOrCreateAlphabet(a.universe);
  ASSERT_TRUE(cache.GetOrCompileSchema(a.din, alpha_a, nullptr).ok());
  EXPECT_EQ(cache.stats().entries, 1u);

  // Universe B displaces A; A's artifact must go with it (it is bound to
  // the old Alphabet object by pointer).
  std::shared_ptr<Alphabet> alpha_b = cache.GetOrCreateAlphabet(b.universe);
  EXPECT_EQ(cache.stats().universes, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // Re-creating A's universe yields a fresh Alphabet object, and the
  // artifact recompiles bound to it.
  std::shared_ptr<Alphabet> alpha_a2 = cache.GetOrCreateAlphabet(a.universe);
  EXPECT_NE(alpha_a.get(), alpha_a2.get());
  bool hit = true;
  StatusOr<std::shared_ptr<const CompiledSchema>> again =
      cache.GetOrCompileSchema(a.din, alpha_a2, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ((*again)->alphabet.get(), alpha_a2.get());
}

TEST(CompileCacheTest, HostileScheduleCompileFailsSoftlyAndIsNotCached) {
  CompileCache::Options options;
  options.compile_max_bytes = 512;  // determinization trips the governor
  CompileCache cache(options);
  Wire wire = WireOf(NfaSchemaFamily(10));
  std::shared_ptr<Alphabet> alphabet = cache.GetOrCreateAlphabet(wire.universe);
  StatusOr<std::shared_ptr<const CompiledSchema>> artifact =
      cache.GetOrCompileSchema(wire.din, alphabet, nullptr);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().entries, 0u);  // failures are never cached
}

TEST(CompileCacheTest, TransducerArtifactCompilesSelectorsAndWidths) {
  CompileCache cache;
  Wire wire = WireOf(XPathChainFamily(3));
  std::shared_ptr<Alphabet> alphabet = cache.GetOrCreateAlphabet(wire.universe);
  StatusOr<std::shared_ptr<const CompiledTransducer>> artifact =
      cache.GetOrCompileTransducer(wire.transducer, alphabet, nullptr);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_TRUE((*artifact)->original->HasSelectors());
  EXPECT_FALSE((*artifact)->selector_free->HasSelectors());
  EXPECT_NE((*artifact)->original.get(), (*artifact)->selector_free.get());
  EXPECT_TRUE((*artifact)->widths.dpw_bounded);

  // Selector-free transducers share one object for both roles.
  Wire plain = WireOf(FilterFamily(3));
  std::shared_ptr<Alphabet> alpha2 = cache.GetOrCreateAlphabet(plain.universe);
  StatusOr<std::shared_ptr<const CompiledTransducer>> plain_artifact =
      cache.GetOrCompileTransducer(plain.transducer, alpha2, nullptr);
  ASSERT_TRUE(plain_artifact.ok());
  EXPECT_EQ((*plain_artifact)->original.get(),
            (*plain_artifact)->selector_free.get());
}

TEST(CompileCacheTest, CompiledSchemasAreFullyForced) {
  CompileCache cache;
  Wire wire = WireOf(NfaSchemaFamily(4));
  std::shared_ptr<Alphabet> alphabet = cache.GetOrCreateAlphabet(wire.universe);
  StatusOr<std::shared_ptr<const CompiledSchema>> artifact =
      cache.GetOrCompileSchema(wire.din, alphabet, nullptr);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  // Every lazy member is pre-forced (thread-compatibility contract) and the
  // non-DFA schema carries its determinization.
  EXPECT_TRUE((*artifact)->dtd->IsCompiled());
  ASSERT_NE((*artifact)->determinized, nullptr);
  EXPECT_TRUE((*artifact)->determinized->IsCompiled());
  EXPECT_TRUE((*artifact)->determinized->IsDfaDtd());
  EXPECT_EQ((*artifact)->determinized->alphabet(), alphabet.get());
}

TEST(CompileCacheTest, LazySnapshotsRoundTripAndAreLruAccounted) {
  CompileCache cache;
  auto snapshot = std::make_shared<LazySnapshot>();
  snapshot->det_tables.emplace_back();
  snapshot->det_tables[0].pool = {0, 1, 2};
  snapshot->det_tables[0].offsets = {0, 1, 3};
  snapshot->complete = true;
  snapshot->empty = true;

  EXPECT_EQ(cache.GetLazySnapshot("k1"), nullptr);
  cache.PutLazySnapshot("k1", snapshot);
  EXPECT_EQ(cache.GetLazySnapshot("k1").get(), snapshot.get());
  EXPECT_EQ(cache.GetLazySnapshot("k2"), nullptr);
  CompileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lazy_hits, 1u);
  EXPECT_EQ(stats.lazy_misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.bytes, snapshot->ApproxBytes());

  // First insert wins: a racing second snapshot for the same key is dropped.
  auto other = std::make_shared<LazySnapshot>(*snapshot);
  cache.PutLazySnapshot("k1", other);
  EXPECT_EQ(cache.GetLazySnapshot("k1").get(), snapshot.get());

  // Null snapshots are ignored rather than cached as tombstones.
  cache.PutLazySnapshot("k3", nullptr);
  EXPECT_EQ(cache.GetLazySnapshot("k3"), nullptr);
}

TEST(CompileCacheTest, LazySnapshotsEvictUnderBytePressureLikeArtifacts) {
  CompileCache::Options options;
  options.max_bytes = 1;  // every insert overflows: only the newest survives
  CompileCache cache(options);
  auto snap = [] {
    auto s = std::make_shared<LazySnapshot>();
    s->complete = true;
    return s;
  };
  cache.PutLazySnapshot("a", snap());
  cache.PutLazySnapshot("b", snap());
  CompileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(cache.GetLazySnapshot("a"), nullptr);
  EXPECT_NE(cache.GetLazySnapshot("b"), nullptr);
}

TEST(CompileCacheTest, LazySnapshotsSurviveUniverseCascades) {
  CompileCache::Options options;
  options.max_universes = 1;
  CompileCache cache(options);
  Wire a = WireOf(FilterFamily(3));
  Wire b = WireOf(RelabFamily(3));
  auto snapshot = std::make_shared<LazySnapshot>();
  snapshot->complete = true;
  cache.PutLazySnapshot("q", snapshot);

  // Displacing universe A with B cascades A's schema artifact away, but the
  // alphabet-independent snapshot entry stays.
  std::shared_ptr<Alphabet> alpha_a = cache.GetOrCreateAlphabet(a.universe);
  ASSERT_TRUE(cache.GetOrCompileSchema(a.din, alpha_a, nullptr).ok());
  cache.GetOrCreateAlphabet(b.universe);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.GetLazySnapshot("q").get(), snapshot.get());
}

TEST(CompileCacheTest, WarmHitsAreServedFromTheSnapshotPath) {
  CompileCache cache;
  Wire wire = WireOf(FilterFamily(4));
  std::shared_ptr<Alphabet> alphabet = cache.GetOrCreateAlphabet(wire.universe);
  ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, nullptr).ok());

  // The insert published a fresh snapshot, so both warm lookups resolve on
  // the lock-free path: every hit is a snapshot hit, and an uncontended
  // single-thread run never records a convoy event.
  bool hit = false;
  ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, &hit).ok());
  EXPECT_TRUE(hit);
  CompileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.snapshot_hits, 2u);
  EXPECT_EQ(stats.lock_waits, 0u);
}

TEST(CompileCacheTest, ShardCountRoundsToAPowerOfTwo) {
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}, {100000, 4096}};
  for (auto [requested, expect] : cases) {
    CompileCache::Options options;
    options.shards = requested;
    CompileCache cache(options);
    EXPECT_EQ(cache.shard_count(), expect) << "requested " << requested;
    EXPECT_EQ(cache.stats().per_shard.size(), expect);
  }
}

TEST(CompileCacheTest, PerShardStatsSumToTheTotals) {
  CompileCache::Options options;
  options.shards = 4;
  CompileCache cache(options);
  for (int n = 2; n < 8; ++n) {
    Wire wire = WireOf(FilterFamily(n));
    std::shared_ptr<Alphabet> alphabet =
        cache.GetOrCreateAlphabet(wire.universe);
    ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, nullptr).ok());
    ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, nullptr).ok());
  }
  CompileCache::Stats stats = cache.stats();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  std::uint64_t hits = 0, misses = 0, evictions = 0, snapshot_hits = 0;
  std::size_t bytes = 0, entries = 0;
  for (const CompileCache::ShardStats& shard : stats.per_shard) {
    hits += shard.hits;
    misses += shard.misses;
    evictions += shard.evictions;
    snapshot_hits += shard.snapshot_hits;
    bytes += shard.bytes;
    entries += shard.entries;
  }
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.evictions, evictions);
  EXPECT_EQ(stats.snapshot_hits, snapshot_hits);
  EXPECT_EQ(stats.bytes, bytes);
  EXPECT_EQ(stats.entries, entries);
  EXPECT_EQ(stats.hits, 6u);    // one warm repeat per family size
  EXPECT_EQ(stats.misses, 6u);  // one compile per family size
}

TEST(CompileCacheTest, ShardedByteCeilingHoldsAcrossShards) {
  CompileCache::Options options;
  options.shards = 4;
  options.max_bytes = 64 << 10;
  CompileCache cache(options);
  for (int n = 2; n < 40; ++n) {
    Wire wire = WireOf(RelabFamily(n));
    std::shared_ptr<Alphabet> alphabet =
        cache.GetOrCreateAlphabet(wire.universe);
    ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, nullptr).ok());
    ASSERT_TRUE(cache.GetOrCompileSchema(wire.dout, alphabet, nullptr).ok());
    // The global invariant holds after every insert, not just at the end:
    // accounted bytes never exceed the ceiling (= the sum of the per-shard
    // budgets), whichever shard the newest artifact hashed into.
    EXPECT_LE(cache.stats().bytes, options.max_bytes);
  }
  CompileCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(CompileCacheTest, UniverseCascadeReachesEveryShard) {
  CompileCache::Options options;
  options.shards = 8;
  options.max_universes = 1;
  CompileCache cache(options);
  // Spread artifacts of one universe across shards: distinct rule bodies
  // over one shared alphabet yield distinct keys, which hash to distinct
  // shards with high probability at 8 keys over 8 shards.
  std::shared_ptr<Alphabet> alphabet =
      cache.GetOrCreateAlphabet({"a", "b", "c", "r"});
  const std::vector<std::string> bodies = {"a",     "b",   "c",    "a b",
                                           "b a",   "a c", "c b a", "a b c"};
  for (const std::string& body : bodies) {
    SchemaSpec spec;
    spec.start = "r";
    spec.rules = {{"r", body}};
    ASSERT_TRUE(cache.GetOrCompileSchema(spec, alphabet, nullptr).ok());
  }
  std::size_t populated = 0;
  for (const CompileCache::ShardStats& shard : cache.stats().per_shard) {
    if (shard.entries > 0) ++populated;
  }
  ASSERT_GT(populated, 1u) << "specs all hashed into one shard; the "
                              "cross-shard cascade would be vacuous";

  // Displacing the universe must clear its artifacts in *every* shard.
  Wire other = WireOf(RelabFamily(3));
  cache.GetOrCreateAlphabet(other.universe);
  CompileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.universes, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  for (const CompileCache::ShardStats& shard : stats.per_shard) {
    EXPECT_EQ(shard.entries, 0u);
    EXPECT_EQ(shard.bytes, 0u);
  }
}

TEST(CompileCacheTest, StaleAlphabetGenerationReadsAsAMiss) {
  CompileCache cache;
  Wire wire = WireOf(FilterFamily(3));
  std::shared_ptr<Alphabet> registered =
      cache.GetOrCreateAlphabet(wire.universe);
  ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, registered, nullptr).ok());

  // A hand-built alphabet with the same names in the same order produces
  // the same canonical key, but it is a different object — the pointer
  // generation check must treat the cached artifact as stale rather than
  // hand out an artifact the engines would reject (they compare alphabets
  // by pointer).
  auto fresh = std::make_shared<Alphabet>();
  for (const std::string& name : wire.universe) fresh->Intern(name);
  bool hit = true;
  StatusOr<std::shared_ptr<const CompiledSchema>> artifact =
      cache.GetOrCompileSchema(wire.din, fresh, &hit);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_EQ((*artifact)->alphabet.get(), fresh.get());

  // The stale entry was erased and replaced: looking up with the fresh
  // alphabet again now hits.
  ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, fresh, &hit).ok());
  EXPECT_TRUE(hit);
}

// TSan stress: lock-free warm readers race inserts, byte-pressure
// evictions, and universe cascades across shards. The assertions are
// deliberately weak (the schedule is nondeterministic); the test's real
// teeth are the tsan preset in ci/run_ci.sh, where any torn snapshot
// publication or unsynchronized map access is a hard failure.
TEST(CompileCacheStressTest, WarmHitsRaceInsertsEvictionsAndCascades) {
  CompileCache::Options options;
  options.shards = 4;
  options.max_bytes = 48 << 10;  // churn inserts overflow: evictions happen
  options.max_universes = 2;     // cascade thread displaces constantly
  CompileCache cache(options);

  struct Keyed {
    Wire wire;
    std::shared_ptr<Alphabet> alphabet;
  };
  std::vector<Keyed> warm;
  for (int n = 3; n < 7; ++n) {
    Keyed k{WireOf(FilterFamily(n)), nullptr};
    k.alphabet = cache.GetOrCreateAlphabet(k.wire.universe);
    ASSERT_TRUE(cache.GetOrCompileSchema(k.wire.din, k.alphabet, nullptr).ok());
    warm.push_back(std::move(k));
  }
  std::vector<Wire> churn;
  for (int n = 2; n < 14; ++n) churn.push_back(WireOf(RelabFamily(n)));
  Wire cascade_a = WireOf(XPathChainFamily(2));
  Wire cascade_b = WireOf(XPathChainFamily(3));

  std::vector<std::thread> threads;
  // Two warm readers: mostly lock-free snapshot hits; when a cascade
  // displaced their universe they observe a stale-generation miss and
  // recompile — still a correct artifact bound to their own alphabet.
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&warm, &cache, reader] {
      for (int i = 0; i < 200; ++i) {
        const Keyed& k = warm[static_cast<std::size_t>(reader + i) %
                              warm.size()];
        StatusOr<std::shared_ptr<const CompiledSchema>> artifact =
            cache.GetOrCompileSchema(k.wire.din, k.alphabet, nullptr);
        ASSERT_TRUE(artifact.ok());
        ASSERT_EQ((*artifact)->alphabet.get(), k.alphabet.get());
      }
    });
  }
  // Churn writer: distinct keys under byte pressure — inserts + evictions
  // + global reconcile racing the readers' snapshot acquires.
  threads.emplace_back([&churn, &cache] {
    for (int i = 0; i < 60; ++i) {
      const Wire& wire = churn[static_cast<std::size_t>(i) % churn.size()];
      std::shared_ptr<Alphabet> alphabet =
          cache.GetOrCreateAlphabet(wire.universe);
      ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, nullptr).ok());
    }
  });
  // Cascade thread: alternating universes past max_universes, so universe
  // evictions cascade into the shards while readers are probing them.
  threads.emplace_back([&cascade_a, &cascade_b, &cache] {
    for (int i = 0; i < 60; ++i) {
      const Wire& wire = (i & 1) != 0 ? cascade_b : cascade_a;
      std::shared_ptr<Alphabet> alphabet =
          cache.GetOrCreateAlphabet(wire.universe);
      ASSERT_TRUE(cache.GetOrCompileSchema(wire.din, alphabet, nullptr).ok());
    }
  });
  for (std::thread& thread : threads) thread.join();

  CompileCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_GE(stats.hits + stats.misses, 520u);  // every call counted once
  std::uint64_t per_shard_hits = 0, per_shard_misses = 0;
  for (const CompileCache::ShardStats& shard : stats.per_shard) {
    per_shard_hits += shard.hits;
    per_shard_misses += shard.misses;
  }
  EXPECT_EQ(stats.hits, per_shard_hits);
  EXPECT_EQ(stats.misses, per_shard_misses);
}

TEST(CanonicalTest, SkeletonAndCompiledDtdAgreeOnCanonicalText) {
  // The cache keys on the *skeleton's* canonical text; compiling (forcing
  // DFAs) must not change the address.
  Wire wire = WireOf(FilterFamily(4));
  Alphabet alphabet;
  for (const std::string& name : wire.universe) alphabet.Intern(name);
  StatusOr<Dtd> skeleton = BuildSchemaSkeleton(wire.din, &alphabet);
  ASSERT_TRUE(skeleton.ok());
  std::string before = CanonicalDtdText(*skeleton);
  std::uint64_t hash_before = StructuralDtdHash(*skeleton);
  ASSERT_TRUE(skeleton->Compile().ok());
  EXPECT_EQ(CanonicalDtdText(*skeleton), before);
  EXPECT_EQ(StructuralDtdHash(*skeleton), hash_before);

  // Compile() minimizes a SetRuleDfa rule in place; the address is taken
  // from what was installed, so it does not move either. The DFA below
  // accepts a* with a redundant state, an unreachable one and a dead one.
  Alphabet ab;
  const int a = ab.Intern("a");
  const int r = ab.Intern("r");
  Dtd dtd(&ab, r);
  Dfa redundant(ab.size());
  const int s0 = redundant.AddState(/*final=*/true);
  const int s1 = redundant.AddState(/*final=*/true);
  redundant.AddState(/*final=*/true);  // unreachable
  const int dead = redundant.AddState(/*final=*/false);
  redundant.SetInitial(s0);
  redundant.SetTransition(s0, a, s1);
  redundant.SetTransition(s1, a, s0);
  redundant.SetTransition(s1, r, dead);
  dtd.SetRuleDfa(r, redundant);
  const std::string installed = CanonicalDtdText(dtd);
  EXPECT_NE(installed.find("dfa 4 init 0 f 0>1; f 0>0 1>3; f; .;"),
            std::string::npos)
      << installed;
  ASSERT_TRUE(dtd.Compile().ok());
  EXPECT_EQ(dtd.RuleDfa(r).num_states(), 1);
  EXPECT_EQ(CanonicalDtdText(dtd), installed);
}

TEST(CanonicalTest, TransducerTextDistinguishesRulesAndStates) {
  Alphabet alphabet;
  for (const char* n : {"a", "b", "r"}) alphabet.Intern(n);
  TransducerSpec spec;
  spec.states = {"q0", "q"};
  spec.initial = "q0";
  spec.rules = {{"q0", "r", "r(q)"}, {"q", "a", "b"}};
  StatusOr<Transducer> t1 = BuildTransducerSkeleton(spec, &alphabet);
  ASSERT_TRUE(t1.ok());

  TransducerSpec other = spec;
  other.rules[1] = {"q", "a", "a"};
  StatusOr<Transducer> t2 = BuildTransducerSkeleton(other, &alphabet);
  ASSERT_TRUE(t2.ok());
  EXPECT_NE(CanonicalTransducerText(*t1), CanonicalTransducerText(*t2));

  // Rule insertion order is canonicalized away.
  TransducerSpec reordered = spec;
  std::swap(reordered.rules[0], reordered.rules[1]);
  StatusOr<Transducer> t3 = BuildTransducerSkeleton(reordered, &alphabet);
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(CanonicalTransducerText(*t1), CanonicalTransducerText(*t3));
  EXPECT_EQ(StructuralTransducerHash(*t1), StructuralTransducerHash(*t3));
}

}  // namespace
}  // namespace xtc
