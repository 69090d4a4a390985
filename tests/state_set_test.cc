#include "src/base/state_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "src/base/interner.h"
#include "src/fa/nfa.h"

namespace xtc {
namespace {

// Property suite cross-checking the packed word-parallel kernel against the
// naive structures it replaced: StateSet vs std::vector<bool> and
// SubsetInterner vs std::map<std::vector<int>, int>. Sizes deliberately
// straddle the 64-bit word boundary so padding-bit hygiene is exercised.

constexpr int kSizes[] = {0, 1, 7, 63, 64, 65, 127, 128, 130, 200};

std::vector<bool> RandomBools(std::mt19937& rng, int n, double density) {
  std::bernoulli_distribution bit(density);
  std::vector<bool> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = bit(rng);
  return out;
}

TEST(StateSetTest, RandomMutationsMatchVectorBoolReference) {
  std::mt19937 rng(20260806);
  for (int n : kSizes) {
    StateSet set(n);
    std::vector<bool> ref(static_cast<std::size_t>(n), false);
    std::uniform_int_distribution<int> pick_bit(0, std::max(0, n - 1));
    std::uniform_int_distribution<int> pick_op(0, 4);
    for (int step = 0; step < 400; ++step) {
      if (n == 0) break;
      const int i = pick_bit(rng);
      const std::size_t ui = static_cast<std::size_t>(i);
      switch (pick_op(rng)) {
        case 0:
          set.Set(i);
          ref[ui] = true;
          break;
        case 1:
          set.Reset(i);
          ref[ui] = false;
          break;
        case 2: {
          const bool v = (rng() & 1) != 0;
          set.SetTo(i, v);
          ref[ui] = v;
          break;
        }
        case 3: {
          const bool was_clear = !ref[ui];
          EXPECT_EQ(set.TestAndSet(i), was_clear);
          ref[ui] = true;
          break;
        }
        case 4:
          EXPECT_EQ(set.Test(i), ref[ui]);
          break;
      }
      EXPECT_EQ(set[i], ref[ui]);
    }
    EXPECT_EQ(set.ToBools(), ref);
    EXPECT_EQ(set.Count(),
              static_cast<int>(std::count(ref.begin(), ref.end(), true)));
    EXPECT_EQ(set.Any(), std::find(ref.begin(), ref.end(), true) != ref.end());
    EXPECT_EQ(set, StateSet::FromBools(ref));
    EXPECT_EQ(set.Hash(), StateSet::FromBools(ref).Hash());
  }
}

TEST(StateSetTest, BinaryOpsMatchReference) {
  std::mt19937 rng(7);
  for (int n : kSizes) {
    for (int round = 0; round < 20; ++round) {
      const std::vector<bool> ra = RandomBools(rng, n, 0.3);
      const std::vector<bool> rb = RandomBools(rng, n, 0.3);
      const StateSet b = StateSet::FromBools(rb);

      // UnionWith reports whether anything changed.
      StateSet u = StateSet::FromBools(ra);
      bool ref_changed = false;
      std::vector<bool> ru = ra;
      for (int i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        if (rb[ui] && !ru[ui]) {
          ru[ui] = true;
          ref_changed = true;
        }
      }
      EXPECT_EQ(u.UnionWith(b), ref_changed);
      EXPECT_EQ(u.ToBools(), ru);
      EXPECT_FALSE(u.UnionWith(b));  // idempotent: second union is a no-op

      StateSet inter = StateSet::FromBools(ra);
      inter.IntersectWith(b);
      StateSet sub = StateSet::FromBools(ra);
      sub.SubtractWith(b);
      bool ref_intersects = false;
      bool ref_contains_all = true;
      for (int i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        EXPECT_EQ(inter.Test(i), ra[ui] && rb[ui]);
        EXPECT_EQ(sub.Test(i), ra[ui] && !rb[ui]);
        ref_intersects = ref_intersects || (ra[ui] && rb[ui]);
        ref_contains_all = ref_contains_all && (!rb[ui] || ra[ui]);
      }
      EXPECT_EQ(StateSet::FromBools(ra).Intersects(b), ref_intersects);
      EXPECT_EQ(StateSet::FromBools(ra).ContainsAll(b), ref_contains_all);
      EXPECT_TRUE(StateSet::FromBools(ra).ContainsAll(inter));
      EXPECT_FALSE(inter.Intersects(sub));
    }
  }
}

TEST(StateSetTest, ForEachVisitsMembersInOrder) {
  std::mt19937 rng(11);
  for (int n : kSizes) {
    const std::vector<bool> ref = RandomBools(rng, n, 0.2);
    const StateSet set = StateSet::FromBools(ref);
    std::vector<int> expected;
    for (int i = 0; i < n; ++i) {
      if (ref[static_cast<std::size_t>(i)]) expected.push_back(i);
    }
    std::vector<int> visited;
    set.ForEach([&](int b) { visited.push_back(b); });
    EXPECT_EQ(visited, expected);
    EXPECT_EQ(set.ToVector(), expected);
  }
}

TEST(StateSetTest, EmptyAndFullUniverseEdgeCases) {
  // Zero-bit universe: every aggregate query must behave.
  StateSet empty(0);
  EXPECT_TRUE(empty.empty_universe());
  EXPECT_FALSE(empty.Any());
  EXPECT_EQ(empty.Count(), 0);
  EXPECT_TRUE(empty.ToVector().empty());
  EXPECT_EQ(empty, StateSet());

  // All-bits-set at non-word-multiple sizes: padding bits must stay zero so
  // Count/==/Hash see exactly num_bits members.
  for (int n : kSizes) {
    StateSet full(n, /*value=*/true);
    EXPECT_EQ(full.Count(), n);
    EXPECT_EQ(full, StateSet::FromBools(std::vector<bool>(
                        static_cast<std::size_t>(n), true)));
    StateSet built(n);
    for (int i = 0; i < n; ++i) built.Set(i);
    EXPECT_EQ(full, built);
    EXPECT_EQ(full.Hash(), built.Hash());
    full.Clear();
    EXPECT_TRUE(full.None());
  }

  // Resize keeps members and zeroes the grown region.
  StateSet grown(65, /*value=*/true);
  grown.Resize(130);
  EXPECT_EQ(grown.Count(), 65);
  for (int i = 65; i < 130; ++i) EXPECT_FALSE(grown.Test(i));
  grown.Resize(3);
  EXPECT_EQ(grown.Count(), 3);
}

TEST(StateSetTest, UniverseSizeDistinguishesEqualMemberSets) {
  StateSet a(64);
  StateSet b(70);
  a.Set(3);
  b.Set(3);
  EXPECT_FALSE(a == b);  // same members, different universe
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(SubsetInternerTest, MatchesOrderedMapReference) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int> pick_len(0, 8);
  std::uniform_int_distribution<int> pick_val(0, 20);
  SubsetInterner interner;
  std::map<std::vector<int>, int> ref;
  std::vector<std::vector<int>> by_id;
  for (int step = 0; step < 3000; ++step) {
    std::vector<int> key(static_cast<std::size_t>(pick_len(rng)));
    for (int& v : key) v = pick_val(rng);
    auto [it, inserted] = ref.emplace(key, static_cast<int>(by_id.size()));
    if (inserted) by_id.push_back(key);
    const int id = interner.Intern(key);
    EXPECT_EQ(id, it->second);
    EXPECT_EQ(interner.Find(key), it->second);
    EXPECT_EQ(interner.size(), static_cast<int>(by_id.size()));
  }
  // Dense ids in first-insertion order; Get round-trips every key.
  for (int id = 0; id < interner.size(); ++id) {
    const std::span<const int> got = interner.Get(id);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()),
              by_id[static_cast<std::size_t>(id)]);
  }
  // Keys never interned are not found.
  const std::vector<int> absent = {99, 98, 97};
  EXPECT_EQ(interner.Find(absent), -1);
  EXPECT_EQ(SubsetInterner().Find(absent), -1);
}

TEST(SubsetInternerTest, EmptyKeyAndReserveSurviveRehash) {
  SubsetInterner interner;
  interner.Reserve(4, 2);
  const std::vector<int> empty_key;
  EXPECT_EQ(interner.Intern(empty_key), 0);
  EXPECT_EQ(interner.Intern(empty_key), 0);
  // Force several rehashes past the reservation; ids must stay stable.
  for (int i = 0; i < 500; ++i) {
    const std::vector<int> key = {i, i * 7, i * 13};
    EXPECT_EQ(interner.Intern(key), i + 1);
  }
  EXPECT_EQ(interner.Find(empty_key), 0);
  for (int i = 0; i < 500; ++i) {
    const std::vector<int> key = {i, i * 7, i * 13};
    EXPECT_EQ(interner.Find(key), i + 1);
  }
}

TEST(SubsetInternerTest, StateSetKeysRoundTripThroughToVector) {
  // The engines intern StateSets via ToVector(); interning must agree with
  // set equality.
  std::mt19937 rng(3);
  SubsetInterner interner;
  std::vector<StateSet> sets;
  for (int round = 0; round < 200; ++round) {
    const StateSet s = StateSet::FromBools(RandomBools(rng, 70, 0.15));
    const int id = interner.Intern(s.ToVector());
    if (id == static_cast<int>(sets.size())) {
      sets.push_back(s);
    } else {
      // Same members (the key drops the universe size, which is fixed here).
      EXPECT_EQ(sets[static_cast<std::size_t>(id)].ToVector(), s.ToVector());
    }
  }
}

// --- Randomized automata: StateSet-backed NFA analyses vs naive
// vector<bool> references, including allowed-mask and empty/full masks. ---

Nfa RandomNfa(std::mt19937& rng, int num_states, int num_symbols,
              int num_edges) {
  Nfa n(num_symbols);
  std::bernoulli_distribution coin(0.2);
  for (int s = 0; s < num_states; ++s) n.AddState(coin(rng), coin(rng));
  std::uniform_int_distribution<int> pick_state(0, num_states - 1);
  std::uniform_int_distribution<int> pick_sym(0, num_symbols - 1);
  for (int e = 0; e < num_edges; ++e) {
    n.AddTransition(pick_state(rng), pick_sym(rng), pick_state(rng));
  }
  return n;
}

std::vector<bool> RefForward(const Nfa& n, const std::vector<bool>& allowed) {
  std::vector<bool> seen(static_cast<std::size_t>(n.num_states()), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int s = 0; s < n.num_states(); ++s) {
      if (!seen[static_cast<std::size_t>(s)] && n.initial(s)) {
        seen[static_cast<std::size_t>(s)] = true;
        changed = true;
      }
      if (!seen[static_cast<std::size_t>(s)]) continue;
      for (const auto& [a, t] : n.Edges(s)) {
        if (!allowed[static_cast<std::size_t>(a)]) continue;
        if (!seen[static_cast<std::size_t>(t)]) {
          seen[static_cast<std::size_t>(t)] = true;
          changed = true;
        }
      }
    }
  }
  return seen;
}

std::vector<bool> RefBackward(const Nfa& n, const std::vector<bool>& allowed) {
  std::vector<bool> seen(static_cast<std::size_t>(n.num_states()), false);
  for (int s = 0; s < n.num_states(); ++s) {
    if (n.final(s)) seen[static_cast<std::size_t>(s)] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int s = 0; s < n.num_states(); ++s) {
      if (seen[static_cast<std::size_t>(s)]) continue;
      for (const auto& [a, t] : n.Edges(s)) {
        if (!allowed[static_cast<std::size_t>(a)]) continue;
        if (seen[static_cast<std::size_t>(t)]) {
          seen[static_cast<std::size_t>(s)] = true;
          changed = true;
          break;
        }
      }
    }
  }
  return seen;
}

TEST(ScratchSetTest, AddExtractClearCycle) {
  ScratchSet scratch;
  scratch.EnsureUniverse(300);
  EXPECT_TRUE(scratch.Add(250));
  EXPECT_TRUE(scratch.Add(3));
  EXPECT_FALSE(scratch.Add(250));  // duplicate
  EXPECT_TRUE(scratch.Add(64));
  EXPECT_TRUE(scratch.Test(3));
  EXPECT_FALSE(scratch.Test(4));
  std::vector<int> out = {99};  // must be replaced, not appended to
  scratch.ExtractSortedAndClear(&out);
  EXPECT_EQ(out, (std::vector<int>{3, 64, 250}));
  // The set is empty again and reusable at a larger universe.
  EXPECT_FALSE(scratch.Test(3));
  scratch.EnsureUniverse(1000);
  EXPECT_TRUE(scratch.Add(999));
  scratch.ExtractSortedAndClear(&out);
  EXPECT_EQ(out, (std::vector<int>{999}));
  // Clear empties without extracting.
  EXPECT_TRUE(scratch.Add(5));
  EXPECT_TRUE(scratch.Add(700));
  scratch.Clear();
  EXPECT_FALSE(scratch.Test(5));
  EXPECT_FALSE(scratch.Test(700));
  EXPECT_TRUE(scratch.Add(5));
  scratch.ExtractSortedAndClear(&out);
  EXPECT_EQ(out, (std::vector<int>{5}));
}

TEST(StateSetTest, NfaAnalysesMatchNaiveReferencesOnRandomAutomata) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 40; ++round) {
    const int num_states = 2 + static_cast<int>(rng() % 70);
    const int num_symbols = 1 + static_cast<int>(rng() % 9);
    const Nfa n = RandomNfa(rng, num_states, num_symbols, 3 * num_states);

    // Masks under test: full (== nullptr), empty, and random subsets.
    std::vector<std::vector<bool>> masks = {
        std::vector<bool>(static_cast<std::size_t>(num_symbols), true),
        std::vector<bool>(static_cast<std::size_t>(num_symbols), false),
        RandomBools(rng, num_symbols, 0.5),
        RandomBools(rng, num_symbols, 0.5)};
    for (std::size_t mi = 0; mi < masks.size(); ++mi) {
      const std::vector<bool>& mask = masks[mi];
      const StateSet allowed = StateSet::FromBools(mask);
      // Pass nullptr for the full mask on even rounds to cover that branch.
      const StateSet* arg =
          (mi == 0 && round % 2 == 0) ? nullptr : &allowed;

      const std::vector<bool> fwd = RefForward(n, mask);
      const std::vector<bool> bwd = RefBackward(n, mask);
      bool ref_accepts = false;
      for (int s = 0; s < n.num_states(); ++s) {
        ref_accepts = ref_accepts || (fwd[static_cast<std::size_t>(s)] &&
                                      bwd[static_cast<std::size_t>(s)]);
      }
      EXPECT_EQ(n.AcceptsSomeOver(arg), ref_accepts);

      std::vector<bool> ref_syms(static_cast<std::size_t>(num_symbols),
                                 false);
      for (int s = 0; s < n.num_states(); ++s) {
        if (!fwd[static_cast<std::size_t>(s)]) continue;
        for (const auto& [a, t] : n.Edges(s)) {
          if (mask[static_cast<std::size_t>(a)] &&
              bwd[static_cast<std::size_t>(t)]) {
            ref_syms[static_cast<std::size_t>(a)] = true;
          }
        }
      }
      EXPECT_EQ(n.SymbolsOnAcceptingPaths(arg).ToBools(), ref_syms);

      // fa_property_test invariants, now over masked languages: a shortest
      // witness exists iff the language is non-empty, is accepted, and uses
      // only allowed symbols; infinite implies non-empty.
      const std::optional<std::vector<int>> word = n.ShortestAcceptedOver(arg);
      EXPECT_EQ(word.has_value(), ref_accepts);
      if (word.has_value()) {
        EXPECT_TRUE(n.Accepts(*word));
        for (int sym : *word) {
          EXPECT_TRUE(mask[static_cast<std::size_t>(sym)]);
        }
      }
      if (n.AcceptsInfinitelyManyOver(arg)) {
        EXPECT_TRUE(ref_accepts);
      }
    }
  }
}

}  // namespace
}  // namespace xtc
