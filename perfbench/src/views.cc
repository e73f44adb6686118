// `views`: the paper's materialized-view use (Sec. IX-C). Two
// MaterializedViews over benchmark-owned logged relations L and R: the
// equi+overlaps join L |x| R and a selection of L on a fixed VT window.
// Each round applies 10 Torp modifications (5 inserts, and 5 deletes
// that each close an open tuple), refreshes both views, then polls both
// with InstantiateAt at 16 reference times one day apart with no
// refresh in between. Exactly a quarter of the rounds also write R, the
// join's inner side.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/ongoing_interval.h"
#include "datasets/synthetic.h"
#include "expr/expr.h"
#include "query/executor.h"
#include "query/materialized_view.h"
#include "query/plan.h"
#include "relation/modifications.h"
#include "workloads.h"

namespace perfbench {

using namespace ongoingdb;

namespace {

struct ViewsShape {
  int64_t rows;
  int64_t keys;
  size_t epoch_rounds;  // a multiple of 4
  size_t warmup_rounds;
  int setups;
};

constexpr ViewsShape kMainShape{20000, 5000, 32, 4, 3};
constexpr ViewsShape kProbeShape{5000, 1250, 240, 4, 1};

// Four 32-round epochs give 128 fresh samples however slow the build is.
constexpr int kMinEpochs = 4;
constexpr int kModsPerRound = 10;
constexpr int kPollsPerRound = 16;
constexpr size_t kVtIndex = 2;
constexpr size_t kLogCapacity = size_t{1} << 16;
constexpr TimePoint kHistoryEnd = Date(2019, 1, 1);

struct Mod {
  bool inner;
  bool insert;
  int64_t id;
  int64_t k;
};

struct Round {
  bool inner;  // also writes R
  TimePoint tc;
  std::vector<Mod> mods;
};

/// IDs of the tuples of `r` whose valid time is still open, [a, now),
/// in order of a: the tuples a Torp delete at a later tc closes.
std::vector<int64_t> OpenIds(const OngoingRelation& r) {
  std::vector<std::pair<TimePoint, int64_t>> open;
  for (const Tuple& t : r.tuples()) {
    const OngoingInterval& vt = t.value(kVtIndex).AsOngoingInterval();
    if (vt.Kind() == IntervalKind::kExpanding) {
      open.emplace_back(vt.start().a(), t.value(0).AsInt64());
    }
  }
  std::sort(open.begin(), open.end());
  std::vector<int64_t> ids;
  for (const auto& [start, id] : open) ids.push_back(id);
  return ids;
}

/// The epoch's rounds. Every delete closes a tuple that is open at that
/// point of the epoch, a base tuple or one an earlier round inserted; a
/// delete of an already closed tuple would be a no-op. Closing [a, now)
/// costs more the further back a lies, since the join delta sweeps
/// every inner entry that overlaps it. So the open tuples stay in order
/// of a (inserts start at tc, after every base tuple), and the i-th
/// delete of a round on a side draws from the i-th fifth of them: every
/// round closes tuples of every age and costs about the same, whatever
/// the seed.
std::vector<Round> GenerateRounds(uint64_t seed, const ViewsShape& shape,
                                  std::vector<int64_t> open_l,
                                  std::vector<int64_t> open_r) {
  SeqRng rng(seed * 0x9E3779B97F4A7C15ULL + 23);
  // One round in every four writes R, at a seeded position, so every
  // prefix of four rounds (the warm-up too) has the same mix.
  std::vector<uint8_t> inner(shape.epoch_rounds, 0);
  for (size_t block = 0; block + 4 <= shape.epoch_rounds; block += 4) {
    inner[block + static_cast<size_t>(rng.Uniform(0, 3))] = 1;
  }
  int64_t next_id[2] = {shape.rows, shape.rows};
  std::vector<int64_t>* open[2] = {&open_l, &open_r};
  std::vector<Round> rounds;
  for (size_t r = 0; r < shape.epoch_rounds; ++r) {
    Round round{inner[r] != 0,
                kHistoryEnd + static_cast<TimePoint>(r) * kPollsPerRound,
                {}};
    // Half inserts, half deletes, in seeded order.
    std::vector<uint8_t> inserts(kModsPerRound, 0);
    std::fill(inserts.begin(), inserts.begin() + kModsPerRound / 2, 1);
    rng.Shuffle(&inserts);
    int64_t deletes[2] = {0, 0};
    for (int m = 0; m < kModsPerRound; ++m) {
      Mod mod{round.inner && m % 2 == 1, inserts[static_cast<size_t>(m)] != 0,
              0, 0};
      const int side = mod.inner ? 1 : 0;
      std::vector<int64_t>& ids = *open[side];
      if (mod.insert) {
        mod.id = next_id[side]++;
        mod.k = rng.Uniform(0, shape.keys - 1);
        ids.push_back(mod.id);
      } else {
        constexpr int64_t kStrata = kModsPerRound / 2;
        const int64_t n = static_cast<int64_t>(ids.size());
        const int64_t stratum = deletes[side]++ % kStrata;
        const auto it = ids.begin() + rng.Uniform(n * stratum / kStrata,
                                                  n * (stratum + 1) / kStrata -
                                                      1);
        mod.id = *it;
        ids.erase(it);
      }
      round.mods.push_back(mod);
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

/// The logged base relations and the two views over them. Plans borrow
/// L and R, so a state never moves.
struct ViewState {
  OngoingRelation left, right;
  PlanPtr join_plan, filter_plan;
  std::optional<MaterializedView> join, filter;
};

std::unique_ptr<ViewState> Build(Run* run, const OngoingRelation& l0,
                                 const OngoingRelation& r0) {
  auto state = std::make_unique<ViewState>();
  state->left = l0;
  state->right = r0;
  state->left.EnableModificationLog(kLogCapacity);
  state->right.EnableModificationLog(kLogCapacity);
  state->join_plan =
      Join(Scan(&state->left, "l"), Scan(&state->right, "r"),
           And(Eq(Col("l.K"), Col("r.K")),
               OverlapsExpr(Col("l.VT"), Col("r.VT"))),
           "l", "r");
  state->filter_plan =
      Filter(Scan(&state->left, "L"),
             OverlapsExpr(Col("VT"), Lit(OngoingInterval::Fixed(
                                         Date(2016, 1, 1), Date(2016, 7, 1)))));
  const size_t first = run->tracer.spans().size();
  {
    ScopedSpan span(&run->tracer, "query.view_create", run->next_op);
    auto join = MaterializedView::Create(state->join_plan);
    auto filter = MaterializedView::Create(state->filter_plan);
    run->report.Check(join.ok() && filter.ok(),
                      "views: MaterializedView::Create failed");
    if (join.ok()) state->join.emplace(std::move(*join));
    if (filter.ok()) state->filter.emplace(std::move(*filter));
  }
  run->layers.AddSpans(run->tracer, first);
  return state;
}

/// Applies one round's writes and refreshes both views. Returns false
/// when a modification or refresh failed.
bool WriteAndRefresh(Run* run, ViewState* s, const Round& round) {
  Tracer* t = &run->tracer;
  const uint64_t op = run->next_op;
  bool ok = true;
  {
    ScopedSpan span(t, "relation.modify", op);
    for (const Mod& mod : round.mods) {
      OngoingRelation* target = mod.inner ? &s->right : &s->left;
      if (mod.insert) {
        ok = ok && TemporalInsert(target,
                                  {Value::Int64(mod.id), Value::Int64(mod.k),
                                   Value::Ongoing(
                                       OngoingInterval::SinceUntilNow(round.tc))},
                                  kVtIndex, round.tc)
                       .ok();
      } else {
        ok = ok && TemporalDelete(target, kVtIndex, round.tc,
                                  [id = mod.id](const Tuple& tuple) {
                                    return tuple.value(0).AsInt64() == id;
                                  })
                       .ok();
      }
    }
  }
  if (!s->join || !s->filter) return false;
  const Hits before = t->enabled() ? ReadHits() : Hits{};
  const int join_span = t->Begin("query.refresh_join", op);
  ok = ok && s->join->Refresh().ok();
  t->End(join_span);
  const bool join_delta = s->join->last_refresh_mode() == RefreshMode::kDelta;
  // The join refresh is reported under the path it took.
  t->Rename(join_span, join_delta ? "query.refresh_join_delta"
                                  : "query.refresh_join_recompute");
  {
    ScopedSpan span(t, "query.refresh_filter", op);
    ok = ok && s->filter->Refresh().ok();
  }
  if (t->enabled()) {
    Layers& l = run->layers;
    l.Total("rounds", 1);
    l.Total("round_hits.view_delta_apply",
            static_cast<double>((ReadHits() - before)[kViewDeltaApply]));
    l.Total("refresh_delta.join", join_delta ? 1 : 0);
    l.Total("refresh_delta.filter",
            s->filter->last_refresh_mode() == RefreshMode::kDelta ? 1 : 0);
  }
  return ok;
}

/// Polls both views at `rt`; returns the instantiated row count.
size_t Poll(Run* run, const ViewState& s, TimePoint rt) {
  Tracer* t = &run->tracer;
  size_t rows = 0;
  {
    ScopedSpan span(t, "relation.instantiate_join", run->next_op);
    rows += s.join->InstantiateAt(rt).size();
  }
  {
    ScopedSpan span(t, "relation.instantiate_filter", run->next_op);
    rows += s.filter->InstantiateAt(rt).size();
  }
  return rows;
}

/// One round: writes + refresh (one `fresh` op), then the polls (one
/// `poll` op each). Returns the round's polled row total.
size_t RunRound(Run* run, ViewState* s, const Round& round, Classes* out) {
  Tracer* t = &run->tracer;
  run->BetweenOps();
  size_t first = t->spans().size();
  double t0 = NowUs();
  bool ok = false;
  {
    ScopedSpan root(t, "op.fresh", run->next_op);
    ok = WriteAndRefresh(run, s, round);
  }
  double t1 = NowUs();
  ++run->next_op;
  run->CountOp(ok, "views: a round's modification or refresh failed");
  if (t->enabled()) run->layers.AddSpans(*t, first);
  if (ok) out->fresh.Add((t1 - t0) * 1e-3, round.inner ? 1 : 0, (t0 + t1) / 2);
  if (!ok || !s->join || !s->filter) return 0;

  size_t rows = 0;
  for (int p = 0; p < kPollsPerRound; ++p) {
    first = t->spans().size();
    t0 = NowUs();
    {
      ScopedSpan root(t, "op.poll", run->next_op);
      rows += Poll(run, *s, round.tc + p);
    }
    t1 = NowUs();
    ++run->next_op;
    run->CountOp(true, "");
    if (t->enabled()) run->layers.AddSpans(*t, first);
    out->poll.Add((t1 - t0) * 1e-3, 0, (t0 + t1) / 2);
  }
  return rows;
}

/// Theorem 2 and recompute-equality checks on a view's final state.
void CheckView(Run* run, const char* what, const MaterializedView& view,
               const PlanPtr& plan, TimePoint rt) {
  auto fresh = Execute(plan);
  run->report.Check(fresh.ok() && SortedRows(*fresh) ==
                                      SortedRows(view.ongoing_result()),
                    std::string("views: ") + what +
                        " differs from a fresh Execute of its plan");
  for (TimePoint at : {rt, rt + kPollsPerRound - 1}) {
    auto fixed = ExecuteAtReferenceTime(plan, at);
    run->report.Check(
        fixed.ok() && InstantiatedRelationsEqual(view.InstantiateAt(at),
                                                 *fixed),
        std::string("views: a poll of ") + what + " fails Theorem 2 at " +
            DateString(at));
  }
}

}  // namespace

void RunViews(Run* run, Scale scale, Classes* out) {
  const bool main_loop = scale == Scale::kMain;
  const ViewsShape& shape = main_loop ? kMainShape : kProbeShape;
  const char* name = main_loop ? "views" : "views-probe";
  datasets::SyntheticOptions gen;
  gen.cardinality = shape.rows;
  gen.key_cardinality = shape.keys;
  gen.ongoing_fraction = 0.20;
  auto generate = [&](int side) {  // 0: L, 1: R
    gen.seed = run->args.seed * 2 + 1 + static_cast<uint64_t>(side);
    return datasets::GenerateSynthetic(gen);
  };
  // The rounds delete open tuples of the data, so they are drawn from a
  // first, untimed generation of it; the set-ups below time their own.
  const std::vector<Round> rounds = GenerateRounds(
      run->args.seed, shape, OpenIds(generate(0)), OpenIds(generate(1)));
  uint64_t digest = Fnv1a(std::to_string(shape.rows));
  for (const Round& round : rounds) {
    std::string line = std::to_string(round.tc) + (round.inner ? "I" : "O");
    for (const Mod& m : round.mods) {
      line += (m.inner ? " r" : " l") + std::string(m.insert ? "+" : "-") +
              std::to_string(m.id) + ":" + std::to_string(m.k);
    }
    digest = Fnv1a(line + "\n", digest);
  }
  std::printf("sequence %s seed=%llu rounds=%zu fnv1a64=%016llx\n", name,
              static_cast<unsigned long long>(run->args.seed), rounds.size(),
              static_cast<unsigned long long>(digest));

  // Set-up: generate L and R, create both views and run the warm-up
  // rounds; repeated so its median is steady.
  OngoingRelation l0, r0;
  Classes warmup;
  for (int s = 0; s < shape.setups; ++s) {
    run->BeginSetup();
    for (int side : {0, 1}) {
      const size_t first = run->tracer.spans().size();
      {
        ScopedSpan span(&run->tracer, "datasets.generate", run->next_op);
        (side == 0 ? l0 : r0) = generate(side);
      }
      run->layers.AddSpans(run->tracer, first);
    }
    std::unique_ptr<ViewState> state = Build(run, l0, r0);
    run->Trace(false);
    for (size_t i = 0; i < shape.warmup_rounds; ++i) {
      RunRound(run, state.get(), rounds[i], &warmup);
    }
    run->Trace(run->args.trace);
    if (main_loop) run->EndSetup();
  }

  std::unique_ptr<ViewState> state;
  size_t first_rows = 0;
  double timed_us = 0;
  for (int epoch = 0;
       run->MoreEpochs(main_loop, epoch, timed_us, kMinEpochs); ++epoch) {
    run->Trace(run->args.trace);
    state.reset();
    state = Build(run, l0, r0);
    const bool traced = run->args.trace && (!main_loop || epoch % 2 == 1);
    run->Trace(traced);
    size_t rows = 0;
    run->BeginEpoch();
    for (const Round& round : rounds) {
      rows += RunRound(run, state.get(), round, out);
    }
    timed_us += run->EndEpoch(main_loop, traced,
                              rounds.size() * (1 + kPollsPerRound));
    if (epoch == 0) first_rows = rows;
    run->report.Check(rows == first_rows,
                      std::string(name) + ": polled rows differ between epochs");
  }
  run->Trace(run->args.trace);

  // Output checks on the last epoch's final state.
  if (!state || !state->join || !state->filter) return;
  run->layers.Total("view_rows",
                    static_cast<double>(state->join->ongoing_result().size() +
                                        state->filter->ongoing_result().size()));
  const TimePoint last_rt = rounds.back().tc;
  CheckView(run, "the join view", *state->join, state->join_plan, last_rt);
  CheckView(run, "the filter view", *state->filter, state->filter_plan,
            last_rt);
}

}  // namespace perfbench
