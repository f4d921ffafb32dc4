#include "core/implication.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <optional>
#include <set>

#include "util/failpoint.h"

namespace psem {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// How often the governed sweeps poll the deadline/cancel state: every
// (kCheckStride) rows or delta consumptions. Budget comparisons against
// the running arc counter ride along with the same stride.
constexpr std::size_t kCheckStride = 256;

}  // namespace

PdImplicationEngine::PdImplicationEngine(const ExprArena* arena,
                                         std::vector<Pd> constraints,
                                         EngineOptions options)
    : arena_(arena), constraints_(std::move(constraints)), options_(options) {
  for (const Pd& pd : constraints_) {
    AddVertex(pd.lhs);
    AddVertex(pd.rhs);
  }
}

std::size_t PdImplicationEngine::CountNewVertices(ExprId e,
                                                  std::set<ExprId>* seen) const {
  if (VertexOf(e) != kNoVertex || seen->count(e)) return 0;
  seen->insert(e);
  std::size_t count = 1;
  if (!arena_->IsAttr(e)) {
    count += CountNewVertices(arena_->LhsOf(e), seen);
    count += CountNewVertices(arena_->RhsOf(e), seen);
  }
  return count;
}

void PdImplicationEngine::InternVertex(ExprId e) {
  // Children first so child indices exist.
  if (!arena_->IsAttr(e)) {
    AddVertex(arena_->LhsOf(e));
    AddVertex(arena_->RhsOf(e));
  }
  uint32_t idx = static_cast<uint32_t>(vertices_.size());
  vertices_.push_back(e);
  if (e >= vertex_of_.size()) vertex_of_.resize(e + 1, kNoVertex);
  vertex_of_[e] = idx;
  kind_.push_back(arena_->KindOf(e));
  parents_.emplace_back();
  if (arena_->IsAttr(e)) {
    lhs_.push_back(kNoVertex);
    rhs_.push_back(kNoVertex);
  } else {
    uint32_t l = vertex_of_[arena_->LhsOf(e)];
    uint32_t r = vertex_of_[arena_->RhsOf(e)];
    lhs_.push_back(l);
    rhs_.push_back(r);
    // Children are already interned (smaller indices), so the parent
    // index is complete before any closure ever runs.
    parents_[l].emplace_back(idx, r);
    if (r != l) parents_[r].emplace_back(idx, l);
  }
  closure_valid_ = false;
}

void PdImplicationEngine::TrySetArc(uint32_t i, uint32_t m) {
  if (up_[i].Test(m)) return;
  up_[i].Set(m);
  delta_up_[i].Set(m);
  dirty_rows_.Set(i);
  ++arc_count_;
}

Status PdImplicationEngine::ComputeClosure(const ExecContext& ctx) {
  const auto closure_start = SteadyClock::now();
  const std::size_t n = vertices_.size();

  {
    Status st = ctx.CheckVertices(n);
    if (st.ok()) st = ctx.Check();
    if (st.ok() && PSEM_FAILPOINT(failpoints::kAlgSeedAlloc)) {
      st = Status::ResourceExhausted(
          "injected arc-matrix allocation failure (psem.alg.seed_alloc)");
    }
    if (!st.ok()) {
      ++stats_.aborted_closures;
      return st;  // nothing mutated yet; the engine state is untouched
    }
  }

  // Seed phase. Every seed arc is planted through the delta state: set in
  // up_, flagged unconsumed in delta_up_, row marked dirty — the fixpoint
  // below then treats seed arcs and derived arcs uniformly (each is
  // consumed exactly once). Cold: reflexive arcs everywhere plus the
  // constraint arcs. (Rule 1 seeds (A, A) for attributes only and derives
  // reflexivity of composites via rules 3/4, resp. 5/2; seeding all
  // vertices is sound and saves rounds.) Incremental: the previous
  // closure is itself a set of sound consequences of E (Lemma 9.2), so it
  // is a valid warm start — old rows are widened in place, only the new
  // vertices get fresh reflexive rows, and new composites over
  // already-consumed children get a one-time catch-up union of their
  // children's rows/columns. The worklist ends up holding exactly the
  // dirty frontier. A resumed closure (seeded_vertices_ == n after an
  // abort) skips seeding entirely: the unconsumed deltas and dirty rows
  // persisted across the abort.
  const std::size_t old_n = seeded_vertices_;
  if (old_n < n) {
    for (std::size_t i = 0; i < old_n; ++i) {
      up_[i].Resize(n);
      delta_up_[i].Resize(n);
      down_[i].Resize(n);
    }
    up_.resize(n);
    delta_up_.resize(n);
    down_.resize(n);
    dirty_rows_.Resize(n);
    for (std::size_t i = old_n; i < n; ++i) {
      up_[i] = DynamicBitset(n);
      delta_up_[i] = DynamicBitset(n);
      down_[i] = DynamicBitset(n);
      TrySetArc(static_cast<uint32_t>(i), static_cast<uint32_t>(i));
    }
    if (old_n == 0) {
      // Rule 6: each constraint contributes its arc(s).
      for (const Pd& pd : constraints_) {
        uint32_t l = vertex_of_[pd.lhs];
        uint32_t r = vertex_of_[pd.rhs];
        TrySetArc(l, r);
        if (pd.is_equation) TrySetArc(r, l);
      }
      ++stats_.cold_closures;
    } else {
      // Composite catch-up: a new composite over old children missed the
      // children's already-consumed deltas, so it takes their current
      // rows (rules 3/2) and columns (rules 5/4) once, full width; any
      // later child growth reaches it through the parents_ index.
      //
      // A column arc (s, m) lifted from a consumed arc into a child is
      // planted already consumed: the bit, the scatter into down_[m], and
      // the rule 3/2 pulls of s's parents. The rest of its consumption is
      // covered elsewhere. Rule 7 forward: all of up_[m] is still on m's
      // frontier, and m's drain pushes it to down_[m] ∋ s. Rule 7
      // backward: every predecessor of s is itself below the child, so it
      // is lifted here or probes m when it consumes its own arc into the
      // child. Rules 5/4 for m's parents: they are new, intern after m,
      // and lift from down_[m] in their own catch-up. Planted as frontier
      // bits instead, every s would push m to all of down_[s] — on a
      // chain, a quadratic sweep of no-op pushes.
      auto lift = [&](std::size_t s, uint32_t m) {
        if (up_[s].Test(m)) return;
        up_[s].Set(m);
        ++arc_count_;
        down_[m].Set(static_cast<uint32_t>(s));
        for (const auto& [p, o] : parents_[s]) {
          if (kind_[p] == ExprKind::kProduct || up_[o].Test(m)) {
            TrySetArc(p, m);
          }
        }
      };
      for (std::size_t m = old_n; m < n; ++m) {
        if (lhs_[m] == kNoVertex) continue;
        const uint32_t l = lhs_[m], r = rhs_[m];
        const uint32_t mi = static_cast<uint32_t>(m);
        std::size_t added =
            kind_[m] == ExprKind::kProduct
                ? up_[m].OrInPlaceCountNew(up_[l], &delta_up_[m]) +
                      up_[m].OrInPlaceCountNew(up_[r], &delta_up_[m])
                : up_[m].OrAndInPlaceCountNew(up_[l], up_[r], &delta_up_[m]);
        if (added) {
          arc_count_ += added;
          dirty_rows_.Set(mi);
        }
        // Column side via the incrementally maintained predecessor
        // index: every consumed arc into a child lifts to the parent.
        if (kind_[m] == ExprKind::kSum) {
          down_[l].ForEach([&](std::size_t s) { lift(s, mi); });
          down_[r].ForEach([&](std::size_t s) { lift(s, mi); });
        } else {
          down_[l].ForEach([&](std::size_t s) {
            if (up_[s].Test(r)) lift(s, mi);
          });
        }
      }
      ++stats_.incremental_closures;
    }
    seeded_vertices_ = n;
  } else {
    // Abort resume over an unchanged V: a pure warm start.
    ++stats_.incremental_closures;
  }
  // Constraints accepted by AddConstraint since the last closure: plant
  // their arcs through the delta state so the fixpoint consumes them like
  // any seed. Idempotent against the cold path above (which already
  // seeded all of constraints_, pending included). Cleared only now —
  // an abort at the entry checks leaves them pending for the next call.
  if (!pending_constraints_.empty()) {
    for (const Pd& pd : pending_constraints_) {
      uint32_t l = vertex_of_[pd.lhs];
      uint32_t r = vertex_of_[pd.rhs];
      TrySetArc(l, r);
      if (pd.is_equation) TrySetArc(r, l);
    }
    pending_constraints_.clear();
  }
  stats_.seed_seconds += SecondsSince(closure_start);

  stats_.pass_arc_delta.clear();
  stats_.passes = 0;
  stats_.sparse_rounds = 0;
  stats_.dense_rounds = 0;
  Status st = DeltaFixpoint(ctx);
  if (st.ok() && stats_.passes == 0) {
    // Nothing was dirty (e.g. an already-quiescent warm start): record
    // the trivial confirming round so trajectory stats stay populated.
    stats_.passes = 1;
    stats_.pass_arc_delta.push_back(0);
  }

  // Partial stats are filled in even when the fixpoint stopped early —
  // the partial-stats-on-timeout contract (docs/robustness.md). num_arcs
  // comes straight from the running counter; it is exact even mid-abort.
  stats_.num_vertices = n;
  stats_.num_arcs = arc_count_;
  stats_.closure_seconds += SecondsSince(closure_start);

  if (!st.ok()) {
    // closure_valid_ stays false while the partially propagated matrix,
    // the unconsumed deltas, and the dirty worklist all persist: the next
    // attempt resumes exactly where this one stopped (re-consuming a
    // half-processed frontier is idempotent), so the engine remains fully
    // usable and converges to the same least fixpoint a cold engine does.
    ++stats_.aborted_closures;
    return st;
  }
#ifndef NDEBUG
  // Audit the incremental counter against a one-off recount (debug
  // builds only — never a per-pass scan).
  std::size_t audit = 0;
  for (const DynamicBitset& row : up_) audit += row.Count();
  assert(audit == arc_count_);
#endif
  closure_valid_ = true;
  return Status::OK();
}

// Semi-naive fixpoint loop. Invariant, held at every round boundary
// and across aborts:
//   (a) delta_up_[i] ⊆ up_[i] and holds exactly row i's unconsumed arcs;
//   (b) dirty_rows_.Test(i) whenever delta_up_[i] is nonempty;
//   (c) down_[j] ∋ i exactly for the *consumed* arcs (i, j);
//   (d) arc_count_ == |up_| (each up_ bit transition bumped it once).
// Every consequence of a consumed arc is either derived at consumption
// time (forward transitivity, per-arc column rules) or guaranteed to be
// derived when a future delta is consumed (backward transitivity through
// down_, parent pulls through parents_) — so when every frontier is
// empty, no rule instance is left unapplied and up_ is the least
// fixpoint of Lemma 9.2.
Status PdImplicationEngine::DeltaFixpoint(const ExecContext& ctx) {
  const std::size_t n = vertices_.size();
  const bool governed = !ctx.unbounded();
  std::vector<uint32_t> worklist;
  std::size_t consumed_strider = 0;
  while (dirty_rows_.Any()) {
    ++stats_.passes;
    if (PSEM_FAILPOINT(failpoints::kAlgSweep)) {
      return Status::Internal("injected closure-sweep fault (psem.alg.sweep)");
    }
    if (governed) {
      PSEM_RETURN_IF_ERROR(ctx.Check());
      PSEM_RETURN_IF_ERROR(ctx.CheckArcs(arc_count_));
    }
    const std::size_t round_start_arcs = arc_count_;
    worklist.clear();
    dirty_rows_.ForEach(
        [&](std::size_t i) { worklist.push_back(static_cast<uint32_t>(i)); });

    // Mode switch on measured frontier density, with an early exit once
    // the pending mass crosses the dense threshold.
    bool dense = false;
    if (worklist.size() >= options_.dense_min_rows) {
      const std::size_t threshold =
          worklist.size() * (n / std::max<std::size_t>(1, options_.dense_inv_density) + 1);
      std::size_t pending = 0;
      for (uint32_t i : worklist) {
        pending += delta_up_[i].Count();
        if (pending >= threshold) {
          dense = true;
          break;
        }
      }
    }
    Status st = dense ? DenseRound(worklist, ctx)
                      : SparseRound(worklist, ctx, &consumed_strider);
    if (dense) {
      ++stats_.dense_rounds;
    } else {
      ++stats_.sparse_rounds;
    }
    if (!st.ok()) return st;  // the round restored the unconsumed frontier
    stats_.pass_arc_delta.push_back(arc_count_ - round_start_arcs);
  }
  return Status::OK();
}

// One sparse round: Gauss-Seidel over the worklist rows, draining each
// row's frontier in place (bits derived mid-row are consumed in the same
// visit). Per consumed arc (i, j):
//   rule 7 fwd  — up_[i] |= up_[j], the new-arc side of the semi-naive
//                 join (word-parallel, skips j's empty words);
//   scatter     — down_[j] gains i (incremental transpose maintenance);
//   rules 5/4   — parents of j probe the single bit (i, parent).
// After the row drains, with S = everything consumed from it this visit:
//   rule 7 bwd  — every predecessor p ∈ down_[i] takes S, consumed on
//                 delivery (see below);
//   rules 3/2   — every parent of i, and of each p that gained bits,
//                 takes S (product) or S ∩ sibling row (sum).
// All pushes are delta-width: they scan only the words between the first
// and last occupied word of S, tracked as bits enter S. On a warm start
// down_[i] is a whole transitively closed predecessor set while S is
// often one word, so a full-width push would cost |down_[i]| * n/64.
Status PdImplicationEngine::SparseRound(const std::vector<uint32_t>& worklist,
                                        const ExecContext& ctx,
                                        std::size_t* consumed_strider) {
  const std::size_t n = vertices_.size();
  const bool governed = !ctx.unbounded();
  const auto rules_start = SteadyClock::now();
  DynamicBitset scratch(n);
  DynamicBitset gained(n);
  // The per-arc part of consuming (row, g): scatter and rules 5/4.
  auto consume = [&](uint32_t row, std::size_t g) {
    down_[g].Set(row);
    for (const auto& [m, o] : parents_[g]) {
      if (kind_[m] == ExprKind::kSum || up_[row].Test(o)) TrySetArc(row, m);
    }
  };
  // Descending index order: AddVertex interns children before parents and
  // theories tend to be written low-to-high, so high rows settle first
  // and most consumptions below hit the settled-source fast path.
  for (std::size_t w = worklist.size(); w-- > 0;) {
    const uint32_t i = worklist[w];
    if (delta_up_[i].None()) {  // drained by an earlier visit this round
      dirty_rows_.Reset(i);
      continue;
    }
    scratch.Clear();
    // Occupied words [lo, hi) of scratch, widened as bits enter it.
    std::size_t lo = SIZE_MAX, hi = 0;
    auto enter = [&](std::size_t g) {
      scratch.Set(g);
      lo = std::min(lo, g >> 6);
      hi = std::max(hi, (g >> 6) + 1);
    };
    std::size_t j;
    while ((j = delta_up_[i].NextSetBit(0)) < n) {
      delta_up_[i].Reset(j);
      enter(j);
      if (j != i) {
        if (!dirty_rows_.Test(j)) {
          // Settled source: every arc of row j has been consumed, so
          // up_[j] is transitively absorbed — one OR brings in all of it,
          // and the gained bits can be marked consumed on the spot
          // (scatter + per-arc column rules) without their own forward
          // joins: anything row g learns later reaches row i through the
          // down_[g] backward join we are registering here.
          gained.Clear();
          std::size_t added = up_[i].OrInPlaceCountNew(up_[j], &gained);
          if (added) {
            arc_count_ += added;
            gained.ForEach(0, SIZE_MAX, [&](std::size_t g) {
              enter(g);
              consume(i, g);
            });
          }
        } else {
          arc_count_ += up_[i].OrInPlaceCountNew(up_[j], &delta_up_[i]);
        }
      }
      consume(i, j);
      if (governed && (++*consumed_strider % kCheckStride) == 0) {
        Status st = ctx.Check();
        if (st.ok()) st = ctx.CheckArcs(arc_count_);
        if (!st.ok()) {
          // Put the already-consumed bits back on the frontier and take
          // back their scatter, so down_ again holds only finished
          // consumptions (invariant (c); the backward join below relies
          // on it). Their other per-arc effects are sound arcs, and the
          // row-level pushes below have not run for them yet —
          // re-consuming on resume completes the round. Rows after this
          // one keep their dirty flags (only reset after a full drain).
          scratch.ForEach(lo, hi, [&](std::size_t g) { down_[g].Reset(i); });
          delta_up_[i].UnionWith(scratch);
          stats_.rules_seconds += SecondsSince(rules_start);
          return st;
        }
      }
    }
    // Rules 3/2 for row v: parents absorb S (product) or S ∩ sibling row
    // (sum) as frontier bits.
    auto pull_parents = [&](uint32_t v) {
      for (const auto& [m, o] : parents_[v]) {
        std::size_t added =
            kind_[m] == ExprKind::kProduct
                ? up_[m].OrInPlaceCountNew(scratch, &delta_up_[m], lo, hi)
                : up_[m].OrAndInPlaceCountNew(scratch, up_[o], &delta_up_[m],
                                              lo, hi);
        if (added) {
          arc_count_ += added;
          dirty_rows_.Set(m);
        }
      }
    };
    // Rule 7, delta on the right: predecessors absorb the drained bits,
    // consumed on delivery. p ∈ down_[i] means p has finished consuming
    // (p, i): its row drained, pushes included (an aborted drain takes
    // its scatter back). A new arc (p, g), g in S, gets its scatter,
    // rules 5/4 and its rules 3/2 for p's parents here. Its rule 7 joins
    // are not needed: up_[g] is in up_[i], which p holds since it
    // consumed (p, i); and each predecessor q of p either is in down_[i]
    // itself, so takes S in this loop, or has (q, i) still to consume,
    // whose forward join brings S. On a warm start this spares each p a
    // full-width forward join per bit of S and a push of S to all of
    // down_[p]. `gained` holds the bits new to p, all within [lo, hi).
    gained.Clear(lo, hi);
    down_[i].ForEach(0, SIZE_MAX, [&](std::size_t p) {
      if (p == i) return;
      const std::size_t added =
          up_[p].OrInPlaceCountNew(scratch, &gained, lo, hi);
      if (!added) return;
      arc_count_ += added;
      gained.ForEach(lo, hi, [&](std::size_t g) {
        consume(static_cast<uint32_t>(p), g);
      });
      gained.Clear(lo, hi);
      pull_parents(static_cast<uint32_t>(p));
    });
    pull_parents(i);
    dirty_rows_.Reset(i);
  }
  stats_.rules_seconds += SecondsSince(rules_start);
  return Status::OK();
}

// One dense round: the whole frontier is frozen into carry_ and consumed
// by phase — scatter + per-arc column rules, then the blocked forward
// join (64-row destination tiles walking the carry words in lockstep, so
// the up_[j] source rows stay cache-hot across a tile), then backward
// transitivity and the parent pulls. New arcs land in delta_up_ and feed
// the next round (Jacobi across rounds). An abort restores every frozen
// carry into delta_up_, takes back its scatter into down_, and redoes the
// round on resume; all other per-arc effects are idempotent and the arc
// counter only counts transitions, so the redo is exact.
Status PdImplicationEngine::DenseRound(const std::vector<uint32_t>& worklist,
                                       const ExecContext& ctx) {
  const std::size_t n = vertices_.size();
  const std::size_t words = (n + 63) / 64;
  const bool governed = !ctx.unbounded();
  if (carry_.size() < n) carry_.resize(n);
  DynamicBitset carry_mask(n);
  for (uint32_t i : worklist) {
    if (carry_[i].size() != n) carry_[i] = DynamicBitset(n);
    std::swap(carry_[i], delta_up_[i]);
    if (carry_[i].Any()) carry_mask.Set(i);
    dirty_rows_.Reset(i);
  }
  auto restore = [&] {
    for (uint32_t i : worklist) {
      // Take back the transpose scatter: these arcs are unconsumed again,
      // and down_ holds only consumed ones (invariant (c)).
      carry_[i].ForEach(0, SIZE_MAX,
                        [&](std::size_t j) { down_[j].Reset(i); });
      delta_up_[i].UnionWith(carry_[i]);
      carry_[i].Clear();
      dirty_rows_.Set(i);
    }
  };
  auto governed_check = [&]() -> Status {
    Status st = ctx.Check();
    if (st.ok()) st = ctx.CheckArcs(arc_count_);
    return st;
  };

  // Incremental transpose: scatter the frozen frontier into down_ one
  // 64-column stripe at a time, so the 64 destination rows of down_ a
  // stripe touches stay cache-resident across the whole worklist.
  auto transpose_start = SteadyClock::now();
  for (std::size_t wk = 0; wk < words; ++wk) {
    if (governed) {
      Status st = governed_check();
      if (!st.ok()) {
        restore();
        stats_.transpose_seconds += SecondsSince(transpose_start);
        return st;
      }
    }
    for (uint32_t i : worklist) {
      uint64_t w = carry_[i].word(wk);
      while (w) {
        const std::size_t j =
            (wk << 6) + static_cast<std::size_t>(__builtin_ctzll(w));
        w &= w - 1;
        down_[j].Set(i);
      }
    }
  }
  stats_.transpose_seconds += SecondsSince(transpose_start);

  // Rules 5/4 per frozen arc: parents of j probe the single bit (i, m).
  auto rules_start = SteadyClock::now();
  std::size_t strider = 0;
  for (uint32_t i : worklist) {
    if (governed && (++strider % kCheckStride) == 0) {
      Status st = governed_check();
      if (!st.ok()) {
        restore();
        stats_.rules_seconds += SecondsSince(rules_start);
        return st;
      }
    }
    carry_[i].ForEach([&](std::size_t j) {
      for (const auto& [m, o] : parents_[j]) {
        if (kind_[m] == ExprKind::kSum || up_[i].Test(o)) TrySetArc(i, m);
      }
    });
  }

  // Blocked forward join (rule 7, delta on the left). Each destination
  // tile accumulates raw ORs into per-row scratch accumulators — the
  // branch-free OrWith kernel — and pays for counting once per row when
  // the accumulator merges into up_. Sources are the live up_ rows, so
  // later tiles see everything earlier tiles merged.
  constexpr std::size_t kTileRows = 64;
  std::array<DynamicBitset, kTileRows> acc;
  for (std::size_t t0 = 0; t0 < worklist.size(); t0 += kTileRows) {
    const std::size_t t1 = std::min(t0 + kTileRows, worklist.size());
    if (governed) {
      Status st = governed_check();
      if (!st.ok()) {
        restore();
        stats_.rules_seconds += SecondsSince(rules_start);
        return st;
      }
    }
    for (std::size_t t = t0; t < t1; ++t) {
      if (acc[t - t0].size() != n) {
        acc[t - t0] = DynamicBitset(n);
      } else {
        acc[t - t0].Clear();
      }
    }
    for (std::size_t wk = 0; wk < words; ++wk) {
      for (std::size_t t = t0; t < t1; ++t) {
        const uint32_t i = worklist[t];
        uint64_t w = carry_[i].word(wk);
        while (w) {
          const std::size_t j =
              (wk << 6) + static_cast<std::size_t>(__builtin_ctzll(w));
          w &= w - 1;
          if (j != i) acc[t - t0].OrWith(up_[j]);
        }
      }
    }
    for (std::size_t t = t0; t < t1; ++t) {
      const uint32_t i = worklist[t];
      arc_count_ += up_[i].OrInPlaceCountNew(acc[t - t0], &delta_up_[i]);
    }
  }

  // Backward join (rule 7, delta on the right), destination-major: row p
  // pulls the carry of every frozen row it reaches (cand = up_[p] ∩
  // carry_mask — a superset of the consumed arcs, which is sound: any
  // derived arc (p, i) supports transitivity). Raw ORs into one scratch
  // row, one counted merge per destination.
  DynamicBitset cand(n);
  DynamicBitset scratch(n);
  strider = 0;
  for (std::size_t p = 0; p < n; ++p) {
    cand = carry_mask;
    cand.IntersectWith(up_[p]);
    cand.Reset(p);
    // Frozen sources this row consumed via the forward join already
    // delivered up_ ⊇ carry there — skip them. (Rows never frozen by
    // any dense round keep a zero-sized carry.)
    if (carry_[p].size() == n) cand.SubtractWith(carry_[p]);
    if (cand.None()) continue;
    if (governed && (++strider % kCheckStride) == 0) {
      Status st = governed_check();
      if (!st.ok()) {
        restore();
        stats_.rules_seconds += SecondsSince(rules_start);
        return st;
      }
    }
    scratch.Clear();
    cand.ForEach([&](std::size_t i) { scratch.OrWith(carry_[i]); });
    std::size_t added = up_[p].OrInPlaceCountNew(scratch, &delta_up_[p]);
    if (added) {
      arc_count_ += added;
      dirty_rows_.Set(static_cast<uint32_t>(p));
    }
  }

  // Rules 3/2: parents pull the frozen carries.
  for (uint32_t i : worklist) {
    for (const auto& [m, o] : parents_[i]) {
      std::size_t added =
          kind_[m] == ExprKind::kProduct
              ? up_[m].OrInPlaceCountNew(carry_[i], &delta_up_[m])
              : up_[m].OrAndInPlaceCountNew(carry_[i], up_[o], &delta_up_[m]);
      if (added) {
        arc_count_ += added;
        dirty_rows_.Set(m);
      }
    }
  }
  stats_.rules_seconds += SecondsSince(rules_start);

  // Frontier fully consumed: drop the carries, flag rows that gained.
  transpose_start = SteadyClock::now();
  for (uint32_t i : worklist) {
    carry_[i].Clear();
    if (delta_up_[i].Any()) dirty_rows_.Set(i);
  }
  stats_.transpose_seconds += SecondsSince(transpose_start);
  return Status::OK();
}

void PdImplicationEngine::Prepare(std::span<const ExprId> exprs) {
  Status st = Prepare(exprs, ExecContext::Unbounded());
  // Unbounded + no armed fail point cannot trip; if a test armed a
  // closure fail point and then called the ungoverned path, surface it
  // loudly rather than silently serving a stale closure.
  PSEM_CHECK(st.ok(), "ungoverned closure failed: " + st.ToString());
}

Status PdImplicationEngine::CheckVertexBudget(std::span<const ExprId> exprs,
                                              const ExecContext& ctx) const {
  std::set<ExprId> seen;
  std::size_t added = 0;
  for (ExprId e : exprs) added += CountNewVertices(e, &seen);
  return ctx.CheckVertices(vertices_.size() + added);
}

Status PdImplicationEngine::Prepare(std::span<const ExprId> exprs,
                                    const ExecContext& ctx) {
  if (ctx.max_vertices() != 0) {
    PSEM_RETURN_IF_ERROR(CheckVertexBudget(exprs, ctx));
  }
  // The closure's entry check polls ctx; with nothing to close, the
  // verdicts are bit probes and need no poll.
  for (ExprId e : exprs) AddVertex(e);
  if (!closure_valid_) PSEM_RETURN_IF_ERROR(ComputeClosure(ctx));
  return Status::OK();
}

void PdImplicationEngine::AddConstraint(const Pd& pd) {
  for (const Pd& existing : constraints_) {
    if (existing == pd) return;
  }
  AddVertex(pd.lhs);
  AddVertex(pd.rhs);
  constraints_.push_back(pd);
  pending_constraints_.push_back(pd);
  closure_valid_ = false;
}

Status PdImplicationEngine::AddConstraint(const Pd& pd,
                                          const ExecContext& ctx) {
  for (const Pd& existing : constraints_) {
    if (existing == pd) return Status::OK();
  }
  if (ctx.max_vertices() != 0) {
    const ExprId sides[] = {pd.lhs, pd.rhs};
    PSEM_RETURN_IF_ERROR(CheckVertexBudget(sides, ctx));
  }
  PSEM_RETURN_IF_ERROR(ctx.Check());
  AddConstraint(pd);
  return Status::OK();
}

Result<PdImplicationEngine::EngineClosureState>
PdImplicationEngine::ExportClosureState() const {
  EngineClosureState state;
  state.arc_count = arc_count_;
  state.seeded_vertices = seeded_vertices_;
  state.closure_valid = closure_valid_;
  state.pending_constraints = pending_constraints_;
  // Only the seeded prefix has rows; vertices beyond it carry no closure
  // state yet (their seeding re-runs after restore).
  state.up.assign(up_.begin(), up_.begin() + seeded_vertices_);
  state.delta_up.assign(delta_up_.begin(),
                        delta_up_.begin() + seeded_vertices_);
  return state;
}

Status PdImplicationEngine::RestoreClosureState(EngineClosureState state) {
  // Validate before touching anything: a snapshot is an untrusted
  // artifact (its checksums prove the bytes, not the semantics).
  const std::size_t m = state.seeded_vertices;
  if (m > vertices_.size()) {
    return Status::FailedPrecondition(
        "closure state covers " + std::to_string(m) +
        " vertices but the engine has only " +
        std::to_string(vertices_.size()));
  }
  if (state.up.size() != m || state.delta_up.size() != m) {
    return Status::DataLoss("closure state row count mismatch");
  }
  uint64_t audit = 0;
  bool any_delta = false;
  for (std::size_t i = 0; i < m; ++i) {
    if (state.up[i].size() != m || state.delta_up[i].size() != m) {
      return Status::DataLoss("closure state row width mismatch");
    }
    if (!state.delta_up[i].IsSubsetOf(state.up[i])) {
      return Status::DataLoss("closure state frontier not within arcs");
    }
    audit += state.up[i].Count();
    any_delta |= state.delta_up[i].Any();
  }
  if (audit != state.arc_count) {
    return Status::DataLoss("closure state arc count mismatch");
  }
  if (state.closure_valid && (any_delta || !state.pending_constraints.empty())) {
    return Status::DataLoss("closure state marked valid with pending work");
  }
  for (const Pd& pd : state.pending_constraints) {
    if (VertexOf(pd.lhs) == kNoVertex || VertexOf(pd.rhs) == kNoVertex) {
      return Status::DataLoss("pending constraint over unknown vertex");
    }
  }

  up_ = std::move(state.up);
  delta_up_ = std::move(state.delta_up);
  arc_count_ = state.arc_count;
  seeded_vertices_ = m;
  pending_constraints_ = std::move(state.pending_constraints);
  // Rebuild the derived structures. dirty = rows with a nonempty
  // frontier; down = transpose of the consumed arcs (up & ~delta).
  dirty_rows_ = DynamicBitset(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (delta_up_[i].Any()) dirty_rows_.Set(i);
  }
  down_.assign(m, DynamicBitset(m));
  DynamicBitset consumed(m);
  for (std::size_t i = 0; i < m; ++i) {
    consumed.AndNot(up_[i], delta_up_[i]);
    consumed.ForEach([&](std::size_t j) { down_[j].Set(i); });
  }
  // Vertices beyond the seeded prefix (if the caller Prepared extra
  // expressions before restoring) re-seed at the next closure.
  closure_valid_ = state.closure_valid && m == vertices_.size();
  return Status::OK();
}

Status PdImplicationEngine::RestoreEngineState(
    const std::vector<ExprId>& vertex_order, std::vector<Pd> constraints,
    EngineClosureState state) {
  if (!vertices_.empty() || seeded_vertices_ != 0) {
    return Status::FailedPrecondition(
        "RestoreEngineState requires a freshly constructed engine");
  }
  for (std::size_t i = 0; i < vertex_order.size(); ++i) {
    AddVertex(vertex_order[i]);
    // AddVertex assigns index i exactly when the order is children-first
    // and duplicate-free; anything else is a malformed snapshot.
    if (vertices_.size() != i + 1 || vertices_[i] != vertex_order[i]) {
      return Status::DataLoss("snapshot vertex order is not children-first");
    }
  }
  for (const Pd& pd : constraints) {
    if (VertexOf(pd.lhs) == kNoVertex || VertexOf(pd.rhs) == kNoVertex) {
      return Status::DataLoss("snapshot constraint over unknown vertex");
    }
  }
  constraints_ = std::move(constraints);
  return RestoreClosureState(std::move(state));
}

bool PdImplicationEngine::LeqInClosure(ExprId e1, ExprId e2) const {
  assert(closure_valid_);
  const uint32_t i = VertexOf(e1);
  const uint32_t j = VertexOf(e2);
  assert(i != kNoVertex && j != kNoVertex);
  return up_[i].Test(j);
}

bool PdImplicationEngine::ImpliesLeq(ExprId e1, ExprId e2) {
  Result<bool> r = ImpliesLeq(e1, e2, ExecContext::Unbounded());
  PSEM_CHECK(r.ok(), "ungoverned closure failed: " + r.status().ToString());
  return *r;
}

Result<bool> PdImplicationEngine::ImpliesLeq(ExprId e1, ExprId e2,
                                             const ExecContext& ctx) {
  const ExprId sides[] = {e1, e2};
  PSEM_RETURN_IF_ERROR(Prepare(sides, ctx));
  return LeqInClosure(e1, e2);
}

bool PdImplicationEngine::Implies(const Pd& query) {
  Result<bool> r = Implies(query, ExecContext::Unbounded());
  PSEM_CHECK(r.ok(), "ungoverned closure failed: " + r.status().ToString());
  return *r;
}

Result<bool> PdImplicationEngine::Implies(const Pd& query,
                                          const ExecContext& ctx) {
  const ExprId sides[] = {query.lhs, query.rhs};
  PSEM_RETURN_IF_ERROR(Prepare(sides, ctx));
  return LeqInClosure(query.lhs, query.rhs) &&
         (!query.is_equation || LeqInClosure(query.rhs, query.lhs));
}

std::vector<bool> PdImplicationEngine::BatchImplies(
    std::span<const Pd> queries) {
  std::vector<Result<bool>> results =
      BatchImplies(queries, ExecContext::Unbounded());
  std::vector<bool> out;
  out.reserve(results.size());
  for (const Result<bool>& r : results) {
    PSEM_CHECK(r.ok(), "ungoverned closure failed: " + r.status().ToString());
    out.push_back(*r);
  }
  return out;
}

std::vector<Result<bool>> PdImplicationEngine::BatchImplies(
    std::span<const Pd> queries, const ExecContext& ctx) {
  // Failures are per-query: each query is pre-checked against the vertex
  // budget BEFORE its subexpressions are interned, so one oversized query
  // gets its own error and leaves the rest of the batch (and the engine)
  // untouched. Result<bool> has no default constructor, so the slots are
  // staged in optionals and unwrapped at the end.
  std::vector<std::optional<Result<bool>>> slots(queries.size());
  std::vector<std::size_t> pending;
  std::set<ExprId> counted;  // spans the batch: vertices shared between
                             // in-budget queries are counted once
  std::size_t prospective = vertices_.size();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Pd& q = queries[i];
    if (ctx.max_vertices() != 0) {
      // Trial-count against a copy so a rejected query's subexpressions
      // don't pollute the shared `counted` set.
      std::set<ExprId> trial = counted;
      std::size_t added = CountNewVertices(q.lhs, &trial) +
                          CountNewVertices(q.rhs, &trial);
      Status st = ctx.CheckVertices(prospective + added);
      if (!st.ok()) {
        slots[i] = Result<bool>(st);
        continue;
      }
      counted = std::move(trial);
      prospective += added;
    }
    AddVertex(q.lhs);
    AddVertex(q.rhs);
    pending.push_back(i);
  }
  // One shared (incremental) closure, then O(1) bit tests.
  if (!pending.empty()) {
    Status st = closure_valid_ ? Status::OK() : ComputeClosure(ctx);
    for (std::size_t i : pending) {
      if (!st.ok()) {
        slots[i] = Result<bool>(st);
        continue;
      }
      const Pd& q = queries[i];
      slots[i] = Result<bool>(LeqInClosure(q.lhs, q.rhs) &&
                              (!q.is_equation || LeqInClosure(q.rhs, q.lhs)));
    }
  }
  std::vector<Result<bool>> out;
  out.reserve(slots.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

// ---------------------------------------------------------------------------
// Naive reference: the seven rules of ALG, applied literally until no new
// arc can be added.
// ---------------------------------------------------------------------------

bool NaivePdImplication(const ExprArena& arena, const std::vector<Pd>& e,
                        const Pd& query) {
  // V: subexpressions of E, e, e'.
  std::set<ExprId> seen;
  std::vector<ExprId> v;
  for (const Pd& pd : e) {
    arena.CollectSubexprs(pd.lhs, &seen, &v);
    arena.CollectSubexprs(pd.rhs, &seen, &v);
  }
  arena.CollectSubexprs(query.lhs, &seen, &v);
  arena.CollectSubexprs(query.rhs, &seen, &v);

  std::set<std::pair<ExprId, ExprId>> gamma;
  auto has = [&](ExprId a, ExprId b) { return gamma.count({a, b}) > 0; };

  bool changed = true;
  while (changed) {
    changed = false;
    auto add = [&](ExprId a, ExprId b) {
      if (gamma.insert({a, b}).second) changed = true;
    };
    // Step 1: (A, A) for attributes.
    for (ExprId x : v) {
      if (arena.IsAttr(x)) add(x, x);
    }
    // Step 6: constraint arcs.
    for (const Pd& pd : e) {
      add(pd.lhs, pd.rhs);
      if (pd.is_equation) add(pd.rhs, pd.lhs);
    }
    for (ExprId x : v) {
      if (arena.IsAttr(x)) continue;
      ExprId p = arena.LhsOf(x), q = arena.RhsOf(x);
      for (ExprId s : v) {
        if (arena.KindOf(x) == ExprKind::kSum) {
          // Step 2: (p,s) and (q,s) => (p+q, s).
          if (has(p, s) && has(q, s)) add(x, s);
          // Step 5: (s,p) or (s,q) => (s, p+q).
          if (has(s, p) || has(s, q)) add(s, x);
        } else {
          // Step 3: (p,s) or (q,s) => (p*q, s).
          if (has(p, s) || has(q, s)) add(x, s);
          // Step 4: (s,p) and (s,q) => (s, p*q).
          if (has(s, p) && has(s, q)) add(s, x);
        }
      }
    }
    // Step 7: transitivity.
    for (const auto& [a, b] : std::set<std::pair<ExprId, ExprId>>(gamma)) {
      for (ExprId c : v) {
        if (has(b, c)) add(a, c);
      }
    }
  }
  bool fwd = has(query.lhs, query.rhs);
  if (!query.is_equation) return fwd;
  return fwd && has(query.rhs, query.lhs);
}

}  // namespace psem
