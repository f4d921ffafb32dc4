// Tests for PD implication (Algorithm ALG, Section 5.2, Theorems 8-9).
// The engine is validated four independent ways:
//   1. hand-checked inferences from the paper's examples;
//   2. differential testing against the literal rule-by-rule NaivePdImplication;
//   3. soundness against explicit finite-lattice models (if ALG says
//      E |= delta, then every sampled lattice satisfying E satisfies delta);
//   4. agreement with the FD closure algorithm on FPD encodings (the
//      Section 5.3 reduction in both directions) and with the Whitman
//      deciders when E is empty (Lemma 8.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fd_theory.h"
#include "core/fpd.h"
#include "core/implication.h"
#include "lattice/expr.h"
#include "lattice/finite_lattice.h"
#include "lattice/whitman.h"
#include "partition/partition_lattice.h"
#include "util/bitset.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace psem {
namespace {

// Convenience: build a theory from PD strings and query one.
bool Implies(const std::vector<std::string>& e, const std::string& query) {
  ExprArena arena;
  std::vector<Pd> pds;
  for (const auto& s : e) pds.push_back(*arena.ParsePd(s));
  PdImplicationEngine engine(&arena, pds);
  return engine.Implies(*arena.ParsePd(query));
}

TEST(PdImplicationTest, FpdTransitivity) {
  // A <= B, B <= C |= A <= C — the FD chain A->B, B->C |= A->C.
  EXPECT_TRUE(Implies({"A = A*B", "B = B*C"}, "A = A*C"));
  EXPECT_TRUE(Implies({"A <= B", "B <= C"}, "A <= C"));
  EXPECT_FALSE(Implies({"A <= B", "B <= C"}, "C <= A"));
}

TEST(PdImplicationTest, ThreeSpellingsOfAnFpdAreInterchangeable) {
  // X = X*Y, Y = Y+X and X <= Y are equivalent (Section 3.2).
  for (const char* premise : {"A = A*B", "B = B+A", "A <= B"}) {
    for (const char* conclusion : {"A = A*B", "B = B+A", "A <= B"}) {
      EXPECT_TRUE(Implies({premise}, conclusion))
          << premise << " |= " << conclusion;
    }
  }
}

TEST(PdImplicationTest, ExampleF) {
  // X = Y*Z is equivalent to { X <= Y*Z, Y*Z <= X }.
  EXPECT_TRUE(Implies({"X = Y*Z"}, "X <= Y*Z"));
  EXPECT_TRUE(Implies({"X = Y*Z"}, "Y*Z <= X"));
  EXPECT_TRUE(Implies({"X <= Y*Z", "Y*Z <= X"}, "X = Y*Z"));
  // And X = Y*Z gives the FDs X -> Y, X -> Z, YZ -> X.
  EXPECT_TRUE(Implies({"X = Y*Z"}, "X <= Y"));
  EXPECT_TRUE(Implies({"X = Y*Z"}, "X <= Z"));
  EXPECT_FALSE(Implies({"X = Y*Z"}, "Y <= X"));
}

TEST(PdImplicationTest, SumDecomposition) {
  // Section 4.2: A+B <= C is equivalent to A <= C and B <= C.
  EXPECT_TRUE(Implies({"A+B <= C"}, "A <= C"));
  EXPECT_TRUE(Implies({"A+B <= C"}, "B <= C"));
  EXPECT_TRUE(Implies({"A <= C", "B <= C"}, "A+B <= C"));
}

TEST(PdImplicationTest, ConnectivityPdConsequences) {
  // C = A+B: both A and B determine C (cf. Example e).
  EXPECT_TRUE(Implies({"C = A+B"}, "A <= C"));
  EXPECT_TRUE(Implies({"C = A+B"}, "B <= C"));
  EXPECT_TRUE(Implies({"C = A+B"}, "C <= A+B"));
  EXPECT_FALSE(Implies({"C = A+B"}, "C <= A"));
  EXPECT_FALSE(Implies({"C <= A+B"}, "C = A+B"));
}

TEST(PdImplicationTest, IdentitiesImpliedByEmptyTheory) {
  EXPECT_TRUE(Implies({}, "A*B = B*A"));
  EXPECT_TRUE(Implies({}, "A+(B+C) = (A+B)+C"));
  EXPECT_TRUE(Implies({}, "A*(A+B) = A"));
  EXPECT_TRUE(Implies({}, "A*B + A*C <= A*(B+C)"));
  EXPECT_FALSE(Implies({}, "A*(B+C) <= A*B + A*C"));
  EXPECT_FALSE(Implies({}, "A = B"));
}

TEST(PdImplicationTest, CongruenceUnderOperators) {
  // From A = B infer A*C = B*C and A+C = B+C.
  EXPECT_TRUE(Implies({"A = B"}, "A*C = B*C"));
  EXPECT_TRUE(Implies({"A = B"}, "A+C = B+C"));
  EXPECT_TRUE(Implies({"A = B", "C = D"}, "A*C = B*D"));
}

TEST(PdImplicationTest, SubstitutionThroughNestedExpressions) {
  EXPECT_TRUE(Implies({"A = B*C"}, "A+D = B*C+D"));
  EXPECT_TRUE(Implies({"A = B*C", "D = A+E"}, "D = B*C+E"));
}

TEST(PdImplicationTest, AugmentationLikeFds) {
  // FD augmentation: A -> B gives AC -> BC.
  EXPECT_TRUE(Implies({"A <= B"}, "A*C <= B*C"));
  // Union rule: A -> B and A -> C give A -> BC.
  EXPECT_TRUE(Implies({"A <= B", "A <= C"}, "A <= B*C"));
  // Decomposition: A -> BC gives A -> B.
  EXPECT_TRUE(Implies({"A <= B*C"}, "A <= B"));
}

TEST(PdImplicationTest, PseudoTransitivityMixedOperators) {
  EXPECT_TRUE(Implies({"A <= B+C", "B <= D", "C <= D"}, "A <= D"));
  EXPECT_FALSE(Implies({"A <= B+C", "B <= D"}, "A <= D"));
}

TEST(PdImplicationTest, EngineStatsArePopulated) {
  ExprArena arena;
  std::vector<Pd> pds = {*arena.ParsePd("A = A*B"), *arena.ParsePd("B = B*C")};
  PdImplicationEngine engine(&arena, pds);
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("A <= C")));
  EXPECT_GT(engine.stats().num_vertices, 0u);
  EXPECT_GT(engine.stats().num_arcs, 0u);
  EXPECT_GT(engine.stats().passes, 0u);
}

TEST(PdImplicationTest, IncrementalQueriesExtendV) {
  ExprArena arena;
  PdImplicationEngine engine(&arena, {*arena.ParsePd("A <= B")});
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("A <= B")));
  std::size_t n1 = engine.stats().num_vertices;
  // A query with fresh subexpressions grows V and stays correct.
  EXPECT_TRUE(engine.Implies(*arena.ParsePd("A*C <= B+D")));
  EXPECT_GT(engine.stats().num_vertices, n1);
  EXPECT_FALSE(engine.Implies(*arena.ParsePd("B <= A")));
}

// --- random generators --------------------------------------------------------

ExprId RandomExpr(ExprArena* arena, Rng* rng, int num_attrs, int ops) {
  if (ops == 0) {
    return arena->Attr(
        std::string(1, static_cast<char>('A' + rng->Below(num_attrs))));
  }
  int left = static_cast<int>(rng->Below(static_cast<uint64_t>(ops)));
  ExprId l = RandomExpr(arena, rng, num_attrs, left);
  ExprId r = RandomExpr(arena, rng, num_attrs, ops - 1 - left);
  return rng->Chance(1, 2) ? arena->Product(l, r) : arena->Sum(l, r);
}

std::vector<Pd> RandomTheory(ExprArena* arena, Rng* rng, int num_attrs,
                             int num_pds, int max_ops) {
  std::vector<Pd> pds;
  for (int i = 0; i < num_pds; ++i) {
    ExprId l = RandomExpr(arena, rng, num_attrs,
                          static_cast<int>(rng->Below(max_ops + 1)));
    ExprId r = RandomExpr(arena, rng, num_attrs,
                          static_cast<int>(rng->Below(max_ops + 1)));
    pds.push_back(rng->Chance(1, 2) ? Pd::Eq(l, r) : Pd::Leq(l, r));
  }
  return pds;
}

// --- differential: engine vs naive rule application ---------------------------

class AlgDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgDifferentialTest, EngineMatchesNaive) {
  Rng rng(5000 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    PdImplicationEngine engine(&arena, e);
    int true_count = 0;
    for (int q = 0; q < 6; ++q) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + q % 3);
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + (q + 1) % 3);
      Pd query = q % 2 == 0 ? Pd::Leq(l, r) : Pd::Eq(l, r);
      bool fast = engine.Implies(query);
      bool slow = NaivePdImplication(arena, e, query);
      ASSERT_EQ(fast, slow)
          << "E: " << [&] {
               std::string s;
               for (const Pd& pd : e) s += arena.ToString(pd) + "; ";
               return s;
             }() << " query: " << arena.ToString(query);
      true_count += fast;
    }
    (void)true_count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgDifferentialTest, ::testing::Range(0, 8));

// --- differential: delta closure vs naive, across engine configurations -------
//
// Coverage for the semi-naive delta closure: 500 random theories
// (20 seeds x 25 trials), each answered three ways against the literal
// rule-by-rule reference:
//   * the default engine and one forced onto the blocked dense kernel
//     every round (dense_min_rows = 1, no density floor), queried incrementally so each
//     later query extends V and exercises the warm-start seeding;
//   * a budget-starved engine whose closure is aborted by WithMaxArcs
//     and resumed with doubled budgets until it completes — the final
//     verdicts after any number of aborted attempts must still match.
// All engine configurations must also agree among themselves on the
// final vertex and arc counts (the closure matrix is configuration-
// independent).

class DeltaClosureDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaClosureDifferentialTest, AllConfigurationsMatchNaive) {
  Rng rng(9100 + GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    std::vector<Pd> queries;
    for (int q = 0; q < 4; ++q) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + q % 3);
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + (q + 1) % 3);
      queries.push_back(q % 2 == 0 ? Pd::Leq(l, r) : Pd::Eq(l, r));
    }
    auto describe = [&](const Pd& query) {
      std::string s = "E: ";
      for (const Pd& pd : e) s += arena.ToString(pd) + "; ";
      return s + " query: " + arena.ToString(query);
    };
    std::vector<bool> expected;
    for (const Pd& q : queries) {
      expected.push_back(NaivePdImplication(arena, e, q));
    }

    std::size_t final_vertices = 0, final_arcs = 0;
    for (bool forced_dense : {false, true}) {
      const EngineOptions options =
          forced_dense ? EngineOptions{.dense_min_rows = 1,
                                       .dense_inv_density = SIZE_MAX}
                       : EngineOptions{};
      PdImplicationEngine engine(&arena, e, options);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        ASSERT_EQ(engine.Implies(queries[qi]), expected[qi])
            << describe(queries[qi]) << " forced dense: " << forced_dense;
      }
      if (!forced_dense) {
        final_vertices = engine.stats().num_vertices;
        final_arcs = engine.stats().num_arcs;
      } else {
        ASSERT_EQ(engine.stats().num_vertices, final_vertices);
        ASSERT_EQ(engine.stats().num_arcs, final_arcs)
            << "forced-dense closure diverged";
      }
    }

    // Abort-and-resume under escalating arc budgets.
    PdImplicationEngine starved(&arena, e);
    bool saw_abort = false;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      uint64_t budget = 1;
      while (true) {
        ExecContext ctx;
        ctx.WithMaxArcs(budget);
        Result<bool> r = starved.Implies(queries[qi], ctx);
        if (r.ok()) {
          ASSERT_EQ(*r, expected[qi])
              << describe(queries[qi]) << " after budget aborts";
          break;
        }
        saw_abort = true;
        ASSERT_LT(budget, uint64_t{1} << 40);
        budget *= 8;
      }
    }
    ASSERT_TRUE(saw_abort);  // budget 1 must starve any nonempty closure
    ASSERT_GE(starved.stats().aborted_closures, 1u);
    ASSERT_EQ(starved.stats().num_vertices, final_vertices);
    ASSERT_EQ(starved.stats().num_arcs, final_arcs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaClosureDifferentialTest,
                         ::testing::Range(0, 20));

// --- incremental closure on multi-word rows ------------------------------------
//
// The incremental tests above use three attributes, so every row is one
// word. Here V spans several words (chains of 130-300 attributes) and
// grows by fresh product and sum queries over the whole chain, and by
// chain links, side links and equations added with AddConstraint. After
// every step, three warm engines — default, forced dense, and
// budget-starved (aborted and resumed) — must hold exactly the closure
// of a cold engine built over the same E and V, and the cold engine must
// match ReferenceClosure. After each equation the starved engine is left
// mid-closure, so the next step's closure resumes from a partial one; it
// is compared once that closure completes.

// Independent reference: the rules of ALG applied to whole rows over V,
// pass after pass, until a pass adds no arc. No frontier, no worklist,
// no warm start. Rule 1 seeds attributes only, as in the paper.
std::vector<DynamicBitset> ReferenceClosure(const ExprArena& arena,
                                            const std::vector<Pd>& e,
                                            const std::vector<ExprId>& v) {
  const std::size_t n = v.size();
  std::unordered_map<ExprId, std::size_t> at;
  for (std::size_t k = 0; k < n; ++k) at[v[k]] = k;
  std::vector<DynamicBitset> up(n, DynamicBitset(n));
  for (std::size_t k = 0; k < n; ++k) {
    if (arena.IsAttr(v[k])) up[k].Set(k);  // rule 1
  }
  for (const Pd& pd : e) {  // rule 6
    up[at[pd.lhs]].Set(at[pd.rhs]);
    if (pd.is_equation) up[at[pd.rhs]].Set(at[pd.lhs]);
  }
  auto arcs = [&] {
    std::size_t count = 0;
    for (const DynamicBitset& row : up) count += row.Count();
    return count;
  };
  for (bool changed = true; changed;) {
    const std::size_t before = arcs();
    for (std::size_t x = 0; x < n; ++x) {
      if (arena.IsAttr(v[x])) continue;
      const std::size_t p = at[arena.LhsOf(v[x])], q = at[arena.RhsOf(v[x])];
      const bool sum = arena.KindOf(v[x]) == ExprKind::kSum;
      for (std::size_t s = 0; s < n; ++s) {
        // Rules 2/3: x <= s from the rows of its children.
        if (sum ? up[p].Test(s) && up[q].Test(s)
                : up[p].Test(s) || up[q].Test(s)) {
          up[x].Set(s);
        }
        // Rules 5/4: s <= x from the columns of its children.
        if (sum ? up[s].Test(p) || up[s].Test(q)
                : up[s].Test(p) && up[s].Test(q)) {
          up[s].Set(x);
        }
      }
    }
    for (std::size_t a = 0; a < n; ++a) {  // rule 7
      for (std::size_t b = 0; b < n; ++b) {
        if (up[a].Test(b)) up[a].UnionWith(up[b]);
      }
    }
    changed = arcs() != before;
  }
  return up;
}

// The attribute named `prefix` followed by k.
ExprId NumberedAttr(ExprArena* arena, const char* prefix, int k) {
  std::string name(prefix);
  name += std::to_string(k);
  return arena->Attr(name);
}

TEST(IncrementalClosureTest, WideGrowthMatchesColdClosure) {
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(9300 + seed);
    ExprArena arena;
    int top = 130 + static_cast<int>(rng.Below(171));  // chain length
    auto chain = [&](int k) { return NumberedAttr(&arena, "c", k); };
    auto side = [&](int k) { return NumberedAttr(&arena, "d", k); };
    auto any = [&] { return chain(static_cast<int>(rng.Below(top))); };
    std::vector<int> sides;  // side attributes introduced so far
    auto any_side = [&] { return side(sides[rng.Below(sides.size())]); };
    std::vector<Pd> e;
    for (int k = 0; k + 1 < top; ++k) e.push_back(Pd::Leq(chain(k), chain(k + 1)));
    // c_lo = c_hi * d and c_hi = c_lo + d leave the chain order intact.
    auto equation = [&](int k) {
      const int a = static_cast<int>(rng.Below(top));
      const int b = static_cast<int>(rng.Below(top));
      const int lo = std::min(a, b), hi = std::max(a, b);
      sides.push_back(k);
      return rng.Chance(1, 2) ? Pd::Eq(chain(lo), arena.Product(chain(hi), side(k)))
                              : Pd::Eq(chain(hi), arena.Sum(chain(lo), side(k)));
    };
    for (int k = 0; k < 3; ++k) e.push_back(equation(k));

    PdImplicationEngine plain(&arena, e);
    PdImplicationEngine dense(
        &arena, e,
        EngineOptions{.dense_min_rows = 1, .dense_inv_density = SIZE_MAX});
    PdImplicationEngine starved(&arena, e);
    bool saw_abort = false;
    auto close = [&](std::span<const ExprId> exprs) {
      plain.Prepare(exprs);
      dense.Prepare(exprs);
      for (uint64_t slack = 1;; slack *= 4) {
        ExecContext ctx;
        ctx.WithMaxArcs(starved.stats().num_arcs + slack);
        if (starved.Prepare(exprs, ctx).ok()) break;
        saw_abort = true;
        ASSERT_LT(slack, uint64_t{1} << 40);
      }
    };
    // Aborts the starved engine's closure once it has made progress past
    // seeding, and leaves it there.
    int partials = 0;
    auto leave_partial = [&] {
      std::size_t seeded = SIZE_MAX;
      for (uint64_t slack = 1;; slack *= 4) {
        ExecContext ctx;
        ctx.WithMaxArcs(starved.stats().num_arcs + slack);
        if (starved.Prepare({}, ctx).ok()) return;
        saw_abort = true;
        if (starved.stats().num_arcs > seeded) {
          ++partials;
          return;
        }
        seeded = starved.stats().num_arcs;
      }
    };
    auto add = [&](const Pd& pd) {
      plain.AddConstraint(pd);
      dense.AddConstraint(pd);
      starved.AddConstraint(pd);
    };

    close({});
    for (int step = 0; step < 12; ++step) {
      std::string what;
      bool starved_partial = false;
      switch (step % 4) {
        case 0: {  // fresh (x*y) <= (u+v), sometimes nested one deeper
          ExprId p = arena.Product(any(), any());
          ExprId s = arena.Sum(rng.Chance(1, 2) ? any() : any_side(), any());
          if (rng.Chance(1, 2)) p = arena.Sum(p, any());
          const ExprId fresh[] = {p, s};
          close(fresh);
          what = "query " + arena.ToString(p) + " <= " + arena.ToString(s);
          break;
        }
        case 1: {  // extend the chain across a word boundary or two
          const int links = 1 + static_cast<int>(rng.Below(70));
          for (int k = 0; k < links; ++k, ++top) {
            add(Pd::Leq(chain(top - 1), chain(top)));
          }
          close({});
          what = std::to_string(links) + " links";
          break;
        }
        case 2: {  // a side attribute below some chain attribute
          const Pd pd = Pd::Leq(any_side(), any());
          add(pd);
          close({});
          what = "side link " + arena.ToString(pd);
          break;
        }
        case 3: {  // one more equation
          const Pd pd = equation(3 + step);
          add(pd);
          plain.Prepare({});
          dense.Prepare({});
          leave_partial();
          starved_partial = true;
          what = "equation " + arena.ToString(pd);
          break;
        }
      }
      PdImplicationEngine cold(&arena, plain.constraints());
      cold.Prepare(plain.vertices());
      const std::vector<ExprId>& v = cold.vertices();
      const std::vector<DynamicBitset> ref =
          ReferenceClosure(arena, cold.constraints(), v);
      std::size_t ref_arcs = 0;
      for (std::size_t a = 0; a < v.size(); ++a) {
        ref_arcs += ref[a].Count();
        for (std::size_t b = 0; b < v.size(); ++b) {
          if (cold.LeqInClosure(v[a], v[b]) != ref[a].Test(b)) {
            FAIL() << "cold after " << what << " (seed " << seed
                   << "): " << arena.ToString(v[a]) << " <= "
                   << arena.ToString(v[b]);
          }
        }
      }
      ASSERT_EQ(cold.stats().num_arcs, ref_arcs)
          << "cold after " << what << " (seed " << seed << ")";
      for (const PdImplicationEngine* warm : {&plain, &dense, &starved}) {
        if (warm == &starved && starved_partial) continue;
        const char* name = warm == &plain   ? "default"
                           : warm == &dense ? "forced dense"
                                            : "starved";
        ASSERT_EQ(warm->vertices().size(), v.size()) << name << " after " << what;
        ASSERT_EQ(warm->stats().num_arcs, cold.stats().num_arcs)
            << name << " after " << what << " (seed " << seed << ")";
        for (ExprId a : v) {
          for (ExprId b : v) {
            if (warm->LeqInClosure(a, b) != cold.LeqInClosure(a, b)) {
              FAIL() << name << " after " << what << " (seed " << seed
                     << "): " << arena.ToString(a) << " <= "
                     << arena.ToString(b);
            }
          }
        }
      }
    }
    EXPECT_TRUE(saw_abort);
    EXPECT_GE(partials, 1);
    EXPECT_GE(starved.stats().aborted_closures, 1u);
    EXPECT_EQ(plain.stats().cold_closures, 1u);
  }
}

// An engine left mid-closure must stay growable. An aborted round puts
// the arcs it had started on back on the frontier, say (p, j); if j
// later drains first, its delivery to p must not pass for part of a
// finished consumption of (p, j). Closed base q <= p; then p <= j and a
// chain of fillers is closed under an arc budget that trips at the first
// check after the round has started, with the number of fillers (and an
// isolated attribute h, which shifts the count by one) swept so that the
// trip lands on every position of the round, p's drain included. The
// partial engine then takes j <= x (x new), a chain of 400 more and two
// fresh composites over x, and is closed; it must hold q <= x and equal
// a cold engine over the same E and V. The second configuration runs
// the aborted round dense and, V having grown, the resumed one sparse.
TEST(IncrementalClosureTest, GrowthOfAPartialClosureMatchesColdClosure) {
  const EngineOptions configs[] = {
      EngineOptions{},
      EngineOptions{.dense_min_rows = 16, .dense_inv_density = 180}};
  for (const EngineOptions& options : configs) {
    int partials = 0, dense_partials = 0;
    for (int fillers = 100; fillers < 170; ++fillers) {
      for (bool isolated : {false, true}) {
        ExprArena arena;
        const ExprId q = arena.Attr("q"), p = arena.Attr("p");
        const ExprId j = arena.Attr("j"), x = arena.Attr("x");
        PdImplicationEngine engine(&arena, {Pd::Leq(q, p)}, options);
        auto chain = [&](const char* name, int length) {
          for (int k = 0; k + 1 < length; ++k) {
            engine.AddConstraint(Pd::Leq(NumberedAttr(&arena, name, k),
                                         NumberedAttr(&arena, name, k + 1)));
          }
        };
        engine.Prepare({});
        engine.AddConstraint(Pd::Leq(p, j));
        chain("f", fillers);
        if (isolated) engine.AddConstraint(Pd::Leq(arena.Attr("h"), arena.Attr("h")));
        // The first attempt seeds and stops at the round's entry check;
        // the second resumes on a budget of one more arc.
        ExecContext seed_only;
        seed_only.WithMaxArcs(engine.stats().num_arcs + 1);
        ASSERT_FALSE(engine.Prepare({}, seed_only).ok());
        ExecContext starved;
        starved.WithMaxArcs(engine.stats().num_arcs + 1);
        if (engine.Prepare({}, starved).ok()) continue;
        ++partials;
        dense_partials += engine.stats().dense_rounds > 0;

        engine.AddConstraint(Pd::Leq(j, x));
        chain("g", 400);
        const ExprId fresh[] = {arena.Sum(x, q), arena.Product(x, p)};
        engine.Prepare(fresh);
        const std::string where = std::to_string(fillers) + " fillers" +
                                  (isolated ? " and h" : "");
        EXPECT_TRUE(engine.LeqInClosure(q, x)) << where;
        PdImplicationEngine cold(&arena, engine.constraints(), options);
        cold.Prepare(engine.vertices());
        ASSERT_EQ(engine.stats().num_arcs, cold.stats().num_arcs) << where;
        for (ExprId a : cold.vertices()) {
          for (ExprId b : cold.vertices()) {
            if (engine.LeqInClosure(a, b) != cold.LeqInClosure(a, b)) {
              FAIL() << where << ": " << arena.ToString(a) << " <= "
                     << arena.ToString(b);
            }
          }
        }
        if (options.dense_min_rows == 16) {
          EXPECT_GT(engine.stats().sparse_rounds, 0u) << where;
        }
      }
    }
    EXPECT_GE(partials, 80);
    if (options.dense_min_rows == 16) {
      EXPECT_EQ(dense_partials, partials);
    }
  }
}

// --- soundness against lattice models ------------------------------------------

class AlgSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgSoundnessTest, ImpliedPdsHoldInEverySatisfyingModel) {
  Rng rng(6000 + GetParam());
  std::vector<FiniteLattice> models;
  models.push_back(FiniteLattice::DiamondM3());
  models.push_back(FiniteLattice::PentagonN5());
  models.push_back(FiniteLattice::Boolean(2));
  models.push_back(FullPartitionLattice(4).lattice);  // Pi_4, 15 elements

  for (int trial = 0; trial < 6; ++trial) {
    ExprArena arena;
    std::vector<Pd> e = RandomTheory(&arena, &rng, 3, 2, 2);
    PdImplicationEngine engine(&arena, e);
    std::vector<Pd> queries;
    for (int q = 0; q < 4; ++q) {
      ExprId l = RandomExpr(&arena, &rng, 3, 1 + q % 3);
      ExprId r = RandomExpr(&arena, &rng, 3, 1 + (q + 1) % 3);
      queries.push_back(q % 2 == 0 ? Pd::Leq(l, r) : Pd::Eq(l, r));
    }
    std::size_t k = arena.num_attrs();
    ASSERT_LE(k, 3u);
    for (const FiniteLattice& l : models) {
      std::size_t total = 1;
      for (std::size_t i = 0; i < k; ++i) total *= l.size();
      for (std::size_t code = 0; code < total; ++code) {
        std::vector<LatticeElem> asg(k);
        std::size_t c = code;
        for (std::size_t i = 0; i < k; ++i) {
          asg[i] = static_cast<LatticeElem>(c % l.size());
          c /= l.size();
        }
        bool model_ok = true;
        for (const Pd& pd : e) {
          if (!*l.Satisfies(arena, pd, asg)) {
            model_ok = false;
            break;
          }
        }
        if (!model_ok) continue;
        // The lattice-with-constants (l, asg) satisfies E: every PD the
        // engine derives must hold in it (Theorem 8 b).
        for (const Pd& q : queries) {
          if (engine.Implies(q)) {
            ASSERT_TRUE(*l.Satisfies(arena, q, asg))
                << arena.ToString(q);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgSoundnessTest, ::testing::Range(0, 6));

// For queries the engine REJECTS, a counterexample lattice should usually
// be found among small partition-lattice models — check a handful of
// specific rejections.
TEST(AlgCompletenessSpotTest, RejectedQueriesHaveCounterexamples) {
  struct Case {
    std::vector<std::string> e;
    std::string query;
  };
  std::vector<Case> cases = {
      {{"A <= B"}, "B <= A"},
      {{"C = A+B"}, "C <= A"},
      {{}, "A*(B+C) <= A*B + A*C"},
      {{"A <= B+C"}, "A <= B"},
  };
  auto full = FullPartitionLattice(4);
  const FiniteLattice& l = full.lattice;
  for (const Case& tc : cases) {
    ExprArena arena;
    std::vector<Pd> e;
    for (const auto& s : tc.e) e.push_back(*arena.ParsePd(s));
    Pd query = *arena.ParsePd(tc.query);
    PdImplicationEngine engine(&arena, e);
    ASSERT_FALSE(engine.Implies(query)) << tc.query;
    // Search Pi_4 assignments for a countermodel.
    std::size_t k = arena.num_attrs();
    std::size_t total = 1;
    for (std::size_t i = 0; i < k; ++i) total *= l.size();
    bool found = false;
    for (std::size_t code = 0; code < total && !found; ++code) {
      std::vector<LatticeElem> asg(k);
      std::size_t c = code;
      for (std::size_t i = 0; i < k; ++i) {
        asg[i] = static_cast<LatticeElem>(c % l.size());
        c /= l.size();
      }
      bool sat_e = true;
      for (const Pd& pd : e) sat_e &= *l.Satisfies(arena, pd, asg);
      if (sat_e && !*l.Satisfies(arena, query, asg)) found = true;
    }
    EXPECT_TRUE(found) << "no countermodel in Pi_4 for " << tc.query;
  }
}

// --- Section 5.3: FD implication == ALG on FPD encodings -----------------------

class FdVsPdTest : public ::testing::TestWithParam<int> {};

TEST_P(FdVsPdTest, ClosureAgreesWithAlg) {
  Rng rng(7000 + GetParam());
  const int num_attrs = 5;
  for (int trial = 0; trial < 8; ++trial) {
    Universe u;
    for (int i = 0; i < num_attrs; ++i) {
      u.Intern(std::string(1, static_cast<char>('A' + i)));
    }
    FdTheory fds(&u);
    int num_fds = 1 + static_cast<int>(rng.Below(4));
    for (int i = 0; i < num_fds; ++i) {
      AttrSet lhs(num_attrs), rhs(num_attrs);
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) lhs.Set(a);
        }
      } while (!lhs.Any());
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) rhs.Set(a);
        }
      } while (!rhs.Any());
      fds.Add(Fd{lhs, rhs});
    }
    ExprArena arena;
    std::vector<Pd> fpds = FdsToFpds(u, &arena, fds.fds());
    PdImplicationEngine engine(&arena, fpds);
    // Query random FDs both ways.
    for (int q = 0; q < 12; ++q) {
      AttrSet lhs(num_attrs), rhs(num_attrs);
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) lhs.Set(a);
        }
      } while (!lhs.Any());
      do {
        for (int a = 0; a < num_attrs; ++a) {
          if (rng.Chance(1, 3)) rhs.Set(a);
        }
      } while (!rhs.Any());
      Fd fd{lhs, rhs};
      Pd fpd = FdToFpd(u, &arena, fd);
      EXPECT_EQ(fds.Implies(fd), engine.Implies(fpd))
          << fd.ToString(u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdVsPdTest, ::testing::Range(0, 8));

// --- empty theory == Whitman ----------------------------------------------------

class EmptyTheoryTest : public ::testing::TestWithParam<int> {};

TEST_P(EmptyTheoryTest, AlgWithEmptyEMatchesWhitman) {
  Rng rng(8000 + GetParam());
  ExprArena arena;
  WhitmanMemo whitman(&arena);
  PdImplicationEngine engine(&arena, {});
  for (int trial = 0; trial < 40; ++trial) {
    ExprId l = RandomExpr(&arena, &rng, 3, 1 + trial % 5);
    ExprId r = RandomExpr(&arena, &rng, 3, 1 + (trial + 1) % 5);
    EXPECT_EQ(engine.ImpliesLeq(l, r), whitman.Leq(l, r))
        << arena.ToString(l) << " <= " << arena.ToString(r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmptyTheoryTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace psem
