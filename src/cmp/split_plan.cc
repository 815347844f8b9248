#include "cmp/split_plan.h"

#include <algorithm>

#include "cmp/linear.h"
#include "common/timer.h"
#include "gini/estimator.h"

namespace cmp {

AttrId SplitPlanner::PredictX(const BundleAnalysis& parent) const {
  AttrId best = numeric_attrs_.front();
  double best_est = std::numeric_limits<double>::infinity();
  for (AttrId a : numeric_attrs_) {
    if (grids_[a].num_intervals() < 2) continue;
    const double est = parent.attr_est.empty() ? 0.0 : parent.attr_est[a];
    if (est < best_est) {
      best_est = est;
      best = a;
    }
  }
  return best;
}

double SplitPlanner::AttrEstFromHist(AttrId a, const Histogram1D& hist,
                                     int offs) const {
  if (hist.num_intervals() < 2) {
    return std::numeric_limits<double>::infinity();
  }
  const AttrAnalysis an = AnalyzeAttribute(hist);
  if (an.best_boundary < 0) {
    return std::numeric_limits<double>::infinity();
  }
  double est = an.gini_min;
  for (int i = 0; i < static_cast<int>(an.interval_est.size()); ++i) {
    if (interior_[a][offs + i] != 0) {
      est = std::min(est, an.interval_est[i]);
    }
  }
  return est;
}

AttrId SplitPlanner::PredictChildX(const HistBundle& parent,
                                   const std::vector<double>& parent_est,
                                   const ChildRestriction& r) const {
  std::vector<double> est = parent_est;
  if (est.empty()) {
    est.assign(schema_.num_attrs(),
               std::numeric_limits<double>::infinity());
  }
  if (parent.bivariate() && r.split_attr != kInvalidAttr) {
    if (r.split_attr == parent.x_attr() && r.is_range) {
      // Split on the X axis: every matrix restricted to the child's X
      // columns gives the child's exact histogram for its Y attribute,
      // and any of them gives the child's X histogram.
      const int lo = r.lo - parent.x_lo();
      const int hi = r.hi - parent.x_lo();
      bool x_done = false;
      for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
        if (a == parent.x_attr() || !schema_.is_numeric(a)) continue;
        const HistogramMatrix& m = parent.matrix(a);
        est[a] = AttrEstFromHist(a, m.MarginalY(lo, hi), 0);
        if (!x_done) {
          est[parent.x_attr()] = AttrEstFromHist(
              parent.x_attr(), m.MarginalX(lo, hi), r.lo);
          x_done = true;
        }
      }
    } else if (r.split_attr != parent.x_attr()) {
      // Split on a Y attribute: the (X, split_attr) matrix restricted to
      // the child's rows gives the child's exact X and split_attr
      // histograms; other attributes keep the parent-level estimate.
      const HistogramMatrix& m = parent.matrix(r.split_attr);
      const Histogram1D hx =
          r.mask != nullptr ? m.MarginalXByYMask(*r.mask, r.want)
                            : m.MarginalXByYRange(r.lo, r.hi);
      est[parent.x_attr()] =
          AttrEstFromHist(parent.x_attr(), hx, parent.x_lo());
      if (schema_.is_numeric(r.split_attr) && r.is_range) {
        est[r.split_attr] = AttrEstFromHist(
            r.split_attr, m.MarginalYByYRange(r.lo, r.hi), r.lo);
      }
    }
  }
  AttrId best = numeric_attrs_.front();
  double best_est = std::numeric_limits<double>::infinity();
  for (AttrId a : numeric_attrs_) {
    if (grids_[a].num_intervals() < 2) continue;
    if (est[a] < best_est) {
      best_est = est[a];
      best = a;
    }
  }
  return best;
}

HistBundle SplitPlanner::MakeFreshBundle(AttrId x_attr, int x_lo,
                                         int x_hi) const {
  if (!bivariate()) return HistBundle::MakeUnivariate(schema_, grids_);
  return HistBundle::MakeBivariate(schema_, grids_, x_attr, x_lo, x_hi);
}

BundleAnalysis SplitPlanner::Analyze(const HistBundle& bundle) const {
  BundleAnalysis out;
  out.attr_est.assign(schema_.num_attrs(),
                      std::numeric_limits<double>::infinity());

  // Per-attribute scoring (histogram extraction, boundary scan, interval
  // estimates, categorical subset search) touches only that attribute's
  // state, so it fans out across the pool; each slot is written by
  // exactly one worker. The winner is then reduced serially in ascending
  // attribute order — the identical comparison chain the serial loop
  // used, so the chosen attribute (ties included) does not depend on the
  // thread count.
  struct AttrResult {
    bool valid = false;
    bool is_cat = false;
    double est = 0.0;
    AttrAnalysis an;
    Histogram1D hist;
    CategoricalSplit cat;
  };
  std::vector<AttrResult> results(schema_.num_attrs());
  auto score_attr = [&](AttrId a) {
    AttrResult& res = results[a];
    Histogram1D hist = bundle.HistFor(a);
    if (schema_.is_numeric(a)) {
      if (hist.num_intervals() < 2) return;
      AttrAnalysis an = AnalyzeAttribute(hist);
      if (an.best_boundary < 0) return;
      // Clamp the per-interval estimates to intervals that can actually
      // contain an interior split point; a tie bucket's gini cannot drop
      // below its edge boundaries no matter what the gradient walk says.
      const int offs =
          (bundle.bivariate() && a == bundle.x_attr()) ? bundle.x_lo() : 0;
      double est = an.gini_min;
      for (int i = 0; i < static_cast<int>(an.interval_est.size()); ++i) {
        if (interior_[a][offs + i] != 0) {
          est = std::min(est, an.interval_est[i]);
        }
      }
      out.attr_est[a] = est;
      res.valid = true;
      res.est = est;
      res.an = std::move(an);
      res.hist = std::move(hist);
    } else {
      const CategoricalSplit cs = BestCategoricalSplit(hist);
      if (!cs.valid) return;
      out.attr_est[a] = cs.gini;
      res.valid = true;
      res.is_cat = true;
      res.est = cs.gini;
      res.cat = cs;
      res.hist = std::move(hist);
    }
  };
  if (pool_->parallelism() > 1 && schema_.num_attrs() > 1) {
    pool_->ParallelFor(schema_.num_attrs(), 1, [&](int64_t lo, int64_t hi) {
      for (int64_t a = lo; a < hi; ++a) score_attr(static_cast<AttrId>(a));
    });
  } else {
    for (AttrId a = 0; a < schema_.num_attrs(); ++a) score_attr(a);
  }

  double best_est = std::numeric_limits<double>::infinity();
  AttrId best_attr = kInvalidAttr;
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (results[a].valid && results[a].est < best_est) {
      best_est = results[a].est;
      best_attr = a;
    }
  }
  if (best_attr == kInvalidAttr) return out;  // kNone: leaf
  AttrAnalysis best_an = std::move(results[best_attr].an);
  Histogram1D best_hist = std::move(results[best_attr].hist);
  CategoricalSplit best_cat = results[best_attr].cat;
  const bool best_is_cat = results[best_attr].is_cat;

  // Linear-combination check (CMP full only): when no univariate split is
  // good enough, look for a splitting line in each matrix.
  if (policy_.search_linear && bundle.bivariate() &&
      best_est > options_.linear_skip_gini) {
    const AttrId x = bundle.x_attr();
    // Each Y's search reads only its own matrix, so the searches fan out
    // across the pool into per-Y slots. The winner is reduced serially in
    // ascending numeric_attrs_ order with the serial loop's comparison,
    // so a tie goes to the first Y whatever the thread count.
    //
    // A Y whose matrix bound shows that no line can pass the adoption
    // test below is skipped. That cannot change the decision: when some
    // other Y's line passes, it scores below every line of the skipped
    // Y and wins anyway; when none passes, no line is adopted either way.
    const double must_beat = (1.0 - options_.linear_gain) * best_est;
    std::vector<AttrId> ys;
    for (AttrId y : numeric_attrs_) {
      if (y != x && grids_[y].num_intervals() >= 2) ys.push_back(y);
    }
    std::vector<LinearSplitResult> lines(ys.size());
    std::vector<double> seconds(ys.size(), 0.0);
    auto search = [&](size_t i) {
      const Timer timer;
      lines[i] = FindBestLine(bundle.matrix(ys[i]), grids_[x], bundle.x_lo(),
                              grids_[ys[i]], options_.linear_grid, must_beat);
      seconds[i] = timer.Seconds();
    };
    if (pool_->parallelism() > 1 && ys.size() > 1) {
      pool_->ParallelFor(static_cast<int64_t>(ys.size()), 1,
                         [&](int64_t lo, int64_t hi) {
                           for (int64_t i = lo; i < hi; ++i) search(i);
                         });
    } else {
      for (size_t i = 0; i < ys.size(); ++i) search(i);
    }
    LinearSplitResult best_line;
    AttrId best_line_y = kInvalidAttr;
    for (size_t i = 0; i < ys.size(); ++i) {
      const LinearSplitResult& line = lines[i];
      out.line_search.search_seconds += seconds[i];
      out.line_search.lines_evaluated += line.lines_evaluated;
      out.line_search.lines_skipped += line.skipped ? 1 : 0;
      if (line.valid && (!best_line.valid || line.gini < best_line.gini)) {
        best_line = line;
        best_line_y = ys[i];
      }
    }
    if (best_line.valid && best_line.gini < must_beat) {
      // The coarse grid is enough to *detect* a linear relationship;
      // refine the winning matrix at full resolution so the committed
      // line hugs the true boundary (fewer residual fix-up splits).
      const Timer refine_timer;
      const LinearSplitResult refined =
          FindBestLine(bundle.matrix(best_line_y), grids_[x], bundle.x_lo(),
                       grids_[best_line_y],
                       std::max(bundle.matrix(best_line_y).x_intervals(),
                                bundle.matrix(best_line_y).y_intervals()));
      out.line_search.refine_seconds += refine_timer.Seconds();
      out.line_search.lines_evaluated += refined.lines_evaluated;
      if (refined.valid && refined.gini <= best_line.gini) {
        best_line = refined;
      }
      out.decision = BundleAnalysis::Decision::kLinear;
      out.attr = x;
      out.linear_split = Split::Linear(x, best_line_y, best_line.a,
                                       best_line.b, best_line.c);
      return out;
    }
  }

  if (best_is_cat) {
    out.decision = BundleAnalysis::Decision::kCategorical;
    out.attr = best_attr;
    out.cat = best_cat;
    out.exact_left_counts.assign(schema_.num_classes(), 0);
    for (int v = 0; v < best_hist.num_intervals(); ++v) {
      if (best_cat.left_subset[v] != 0) {
        for (ClassId c = 0; c < schema_.num_classes(); ++c) {
          out.exact_left_counts[c] += best_hist.count(v, c);
        }
      }
    }
    return out;
  }

  // Numeric split on best_attr. Histogram rows are local for a bivariate
  // X attribute: translate to global grid indices.
  const int local_offset =
      (bundle.bivariate() && best_attr == bundle.x_attr()) ? bundle.x_lo()
                                                           : 0;
  const int global_cut = local_offset + best_an.best_boundary;
  out.attr = best_attr;
  out.fallback_threshold = CutValue(best_attr, global_cut);
  out.fallback_gini = best_an.gini_min;

  // Alive interval selection (Section 2.1): the interval with the lowest
  // estimate, plus the interval adjacent to the best boundary (the side
  // with the lower estimate), deduplicated and capped at max_alive. An
  // interval whose estimate cannot beat the boundary minimum is dropped.
  auto has_interior = [&](int local_i) {
    return interior_[best_attr][local_offset + local_i] != 0;
  };
  auto eligible = [&](int i) {
    return i >= 0 && i < static_cast<int>(best_an.interval_est.size()) &&
           has_interior(i) &&
           best_an.interval_est[i] < best_an.gini_min - 1e-12;
  };
  int est_arg = -1;
  double est_arg_val = std::numeric_limits<double>::infinity();
  for (int i = 0; i < static_cast<int>(best_an.interval_est.size()); ++i) {
    if (eligible(i) && best_an.interval_est[i] < est_arg_val) {
      est_arg_val = best_an.interval_est[i];
      est_arg = i;
    }
  }
  // Candidate alive intervals, per Section 2.1: both intervals adjacent
  // to the best boundary (the exact split usually hides just beside it)
  // and the interval with the smallest estimate, lowest-estimate first,
  // capped at max_alive.
  const int b = best_an.best_boundary;  // local cut between b and b+1
  std::vector<int> alive_local;
  auto add_alive = [&](int i) {
    if (!eligible(i)) return;
    for (int existing : alive_local) {
      if (existing == i) return;
    }
    alive_local.push_back(i);
  };
  add_alive(est_arg);
  add_alive(b);
  add_alive(b + 1);
  if (static_cast<int>(alive_local.size()) > options_.max_alive) {
    std::sort(alive_local.begin(), alive_local.end(), [&](int x, int y) {
      return best_an.interval_est[x] < best_an.interval_est[y];
    });
    alive_local.resize(options_.max_alive);
  }
  std::sort(alive_local.begin(), alive_local.end());

  if (alive_local.empty()) {
    out.decision = BundleAnalysis::Decision::kNumericExact;
    out.exact_left_counts = best_hist.PrefixBefore(best_an.best_boundary + 1);
    return out;
  }
  // CMP-B/CMP only grow a second level per scan when an X-axis split has
  // a single alive interval (Figure 10, line 18). When the split lands
  // on the X axis, trade a sliver of split precision for that extra
  // level by keeping only the best-estimated interval — CMP-S keeps the
  // full alive set and stays maximally exact.
  if (policy_.trim_alive_on_x && bundle.bivariate() &&
      best_attr == bundle.x_attr() && alive_local.size() > 1) {
    int keep = alive_local[0];
    for (int i : alive_local) {
      if (best_an.interval_est[i] < best_an.interval_est[keep]) keep = i;
    }
    alive_local = {keep};
  }
  out.decision = BundleAnalysis::Decision::kNumericPending;
  out.alive.reserve(alive_local.size());
  for (int i : alive_local) out.alive.push_back(local_offset + i);
  return out;
}

std::unique_ptr<Pending> SplitPlanner::MakePending(
    const HistBundle& bundle, const BundleAnalysis& analysis, int depth,
    LineSearchStats* line_search) const {
  auto p = std::make_unique<Pending>();
  p->attr = analysis.attr;
  p->alive = analysis.alive;
  const int num_segments = static_cast<int>(p->alive.size()) + 1;
  p->segments.resize(num_segments);

  // Global interval range of the node on the split attribute.
  const bool on_x = bundle.bivariate() && analysis.attr == bundle.x_attr();
  const int node_lo = on_x ? bundle.x_lo() : 0;
  const int node_hi =
      on_x ? bundle.x_hi() : grids_[analysis.attr].num_intervals();

  // Segment k's record range: between alive[k-1] and alive[k],
  // exclusive; its *bundle* range additionally covers the partial alive
  // columns it may receive at flush time.
  for (int k = 0; k < num_segments; ++k) {
    Segment& seg = p->segments[k];
    seg.counts.assign(schema_.num_classes(), 0);
    seg.range_lo = k == 0 ? node_lo : p->alive[k - 1];
    seg.range_hi = k == num_segments - 1 ? node_hi : p->alive[k] + 1;
  }

  const bool double_split = bivariate() && on_x && p->alive.size() == 1 &&
                            depth + 1 < options_.base.max_depth;
  if (double_split) {
    // CMP-B: derive the two subnodes' matrices from the parent's (the
    // alive column stays empty until the buffer is flushed) and plan
    // their own splits right away (Figure 10, line 18).
    const int i1 = p->alive[0];
    Segment& left = p->segments[0];
    Segment& right = p->segments[1];
    left.bundle = bundle.DeriveXRange(left.range_lo, left.range_hi,
                                      left.range_lo, i1);
    right.bundle = bundle.DeriveXRange(right.range_lo, right.range_hi,
                                       i1 + 1, right.range_hi);
    left.bundle_fresh = false;
    right.bundle_fresh = false;
    PlanSegment(&left, depth + 1, line_search);
    PlanSegment(&right, depth + 1, line_search);
  } else if (!bivariate()) {
    for (int k = 0; k < num_segments; ++k) {
      Segment& seg = p->segments[k];
      seg.bundle = HistBundle::MakeUnivariate(schema_, grids_);
      seg.bundle_fresh = true;
      seg.plan = PlanKind::kGrow;
    }
  } else if (num_segments == 2) {
    // One alive interval: each side of the eventual split is exactly one
    // segment (no merging), so each subnode can get its own predicted
    // X axis (paper Figure 7) and an X range matching its records.
    for (int k = 0; k < num_segments; ++k) {
      Segment& seg = p->segments[k];
      // Prediction sees full columns only; the alive column's records are
      // still unassigned at this point.
      const int full_lo = k == 0 ? seg.range_lo : seg.range_lo + 1;
      const int full_hi = k == 0 ? seg.range_hi - 1 : seg.range_hi;
      ChildRestriction r{analysis.attr, true, full_lo, full_hi, nullptr, 1};
      const AttrId x = PredictChildX(bundle, analysis.attr_est, r);
      int lo = 0;
      int hi = grids_[x].num_intervals();
      if (x == analysis.attr) {
        lo = seg.range_lo;
        hi = seg.range_hi;
      } else if (bundle.bivariate() && x == bundle.x_attr()) {
        lo = bundle.x_lo();
        hi = bundle.x_hi();
      }
      seg.bundle = HistBundle::MakeBivariate(schema_, grids_, x, lo, hi);
      seg.bundle_fresh = true;
      seg.plan = PlanKind::kGrow;
    }
  } else {
    // Two alive intervals: resolution may merge adjacent segments, so
    // every segment needs the SAME bundle shape — use one shared
    // predicted X covering the whole node range.
    const AttrId x = PredictX(analysis);
    int lo = 0;
    int hi = grids_[x].num_intervals();
    if (on_x && x == analysis.attr) {
      lo = node_lo;
      hi = node_hi;
    } else if (bundle.bivariate() && x == bundle.x_attr()) {
      lo = bundle.x_lo();
      hi = bundle.x_hi();
    }
    for (int k = 0; k < num_segments; ++k) {
      Segment& seg = p->segments[k];
      seg.bundle = HistBundle::MakeBivariate(schema_, grids_, x, lo, hi);
      seg.bundle_fresh = true;
      seg.plan = PlanKind::kGrow;
    }
  }
  return p;
}

void SplitPlanner::PlanSegment(Segment* seg, int depth,
                               LineSearchStats* line_search) const {
  const std::vector<int64_t> totals = seg->bundle.ClassTotals();
  // Too small / pure / deep partitions keep the derived bundle and are
  // finished at resolution time.
  if (IsPure(totals) || CountSum(totals) < options_.base.min_split_records ||
      CountSum(totals) <= options_.base.in_memory_threshold ||
      depth >= options_.base.max_depth) {
    seg->plan = PlanKind::kGrow;
    return;
  }
  const BundleAnalysis an = Analyze(seg->bundle);
  line_search->Add(an.line_search);
  switch (an.decision) {
    case BundleAnalysis::Decision::kNone:
      seg->plan = PlanKind::kGrow;
      return;
    case BundleAnalysis::Decision::kNumericPending: {
      // Nested pending: its segments are fresh grandchild bundles.
      auto sub = std::make_unique<Pending>();
      sub->attr = an.attr;
      sub->alive = an.alive;
      const int num_segments = static_cast<int>(an.alive.size()) + 1;
      sub->segments.resize(num_segments);
      const bool sub_on_x = an.attr == seg->bundle.x_attr();
      const int node_lo = sub_on_x ? seg->bundle.x_lo() : 0;
      const int node_hi =
          sub_on_x ? seg->bundle.x_hi() : grids_[an.attr].num_intervals();
      // Predict each grandchild's X axis when merging is impossible
      // (single alive interval); otherwise share one shape.
      AttrId shared_x = kInvalidAttr;
      if (num_segments != 2) shared_x = PredictX(an);
      for (int k = 0; k < num_segments; ++k) {
        Segment& sseg = sub->segments[k];
        sseg.counts.assign(schema_.num_classes(), 0);
        sseg.range_lo = k == 0 ? node_lo : sub->alive[k - 1];
        sseg.range_hi =
            k == num_segments - 1 ? node_hi : sub->alive[k] + 1;
        AttrId x = shared_x;
        if (x == kInvalidAttr) {
          const int full_lo = k == 0 ? sseg.range_lo : sseg.range_lo + 1;
          const int full_hi = k == 0 ? sseg.range_hi - 1 : sseg.range_hi;
          ChildRestriction r{an.attr, true, full_lo, full_hi, nullptr, 1};
          x = PredictChildX(seg->bundle, an.attr_est, r);
        }
        int lo = 0;
        int hi = grids_[x].num_intervals();
        if (sub_on_x && x == an.attr && num_segments == 2) {
          lo = sseg.range_lo;
          hi = sseg.range_hi;
        } else if (sub_on_x && x == an.attr) {
          lo = node_lo;
          hi = node_hi;
        } else if (x == seg->bundle.x_attr()) {
          // The sub-node's records stay inside the parent segment's X
          // range even when the nested split is on another attribute.
          lo = seg->bundle.x_lo();
          hi = seg->bundle.x_hi();
        }
        sseg.bundle = MakeFreshBundle(x, lo, hi);
        sseg.bundle_fresh = true;
        sseg.plan = PlanKind::kGrow;
      }
      seg->plan = PlanKind::kPending;
      seg->sub = std::move(sub);
      return;
    }
    case BundleAnalysis::Decision::kNumericExact:
    case BundleAnalysis::Decision::kCategorical:
    case BundleAnalysis::Decision::kLinear: {
      seg->plan = PlanKind::kExact;
      AttrId lx = kInvalidAttr;
      AttrId rx = kInvalidAttr;
      if (an.decision == BundleAnalysis::Decision::kNumericExact) {
        seg->exact_split = Split::Numeric(an.attr, an.fallback_threshold);
        const int cut = grids_[an.attr].IntervalOf(an.fallback_threshold);
        ChildRestriction left_r{an.attr, true, 0, cut + 1, nullptr, 1};
        ChildRestriction right_r{an.attr, true, cut + 1,
                                 grids_[an.attr].num_intervals(), nullptr,
                                 1};
        lx = PredictChildX(seg->bundle, an.attr_est, left_r);
        rx = PredictChildX(seg->bundle, an.attr_est, right_r);
      } else if (an.decision == BundleAnalysis::Decision::kCategorical) {
        seg->exact_split = Split::Categorical(an.attr, an.cat.left_subset);
        ChildRestriction left_r{an.attr, false, 0, 0,
                                &seg->exact_split.left_subset, 1};
        ChildRestriction right_r{an.attr, false, 0, 0,
                                 &seg->exact_split.left_subset, 0};
        lx = PredictChildX(seg->bundle, an.attr_est, left_r);
        rx = PredictChildX(seg->bundle, an.attr_est, right_r);
      } else {
        seg->exact_split = an.linear_split;
        lx = rx = PredictX(an);
      }
      seg->exact_left = MakeFreshBundle(lx, 0, grids_[lx].num_intervals());
      seg->exact_right = MakeFreshBundle(rx, 0, grids_[rx].num_intervals());
      seg->exact_left_counts.assign(schema_.num_classes(), 0);
      seg->exact_right_counts.assign(schema_.num_classes(), 0);
      return;
    }
  }
}

}  // namespace cmp
