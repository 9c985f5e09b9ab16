// Unified metrics registry with Prometheus text exposition.
//
// The serving stack keeps its counters where they are cheap to record —
// StatsLedger under its own mutex, BufferPool counters under the pool
// mutex, the thread pool under its own. MetricsRegistry does NOT duplicate
// that state; it is a pull-model directory of instruments: each registered
// series carries a callback that reads the live value at scrape() time. One
// scrape therefore yields one coherent text page across slots, pools, the
// thread pool and the tracer, without adding a single instruction to any
// hot path.
//
// Exposition follows the Prometheus text format (# HELP / # TYPE lines,
// `name{label="value"} value` series, histogram `_bucket`/`_sum`/`_count`
// with CUMULATIVE le buckets). Output order is deterministic: families in
// first-registration order, series in registration order within a family —
// the property the scrape golden test pins.
//
// Thread safety: registration and scrape() are mutex-guarded. Callbacks run
// under the registry mutex, so they must not call back into the registry;
// they may (and do) take subsystem locks — the registry lock is always
// acquired first and no subsystem calls into the registry, so the order is
// acyclic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"

namespace nnlut::obs {

/// Pull-time snapshot of one histogram instrument. `upper_bounds` are the
/// finite bucket upper edges, ascending; `counts` has one entry per bound
/// PLUS a final overflow entry (the implicit +Inf bucket), all
/// NON-cumulative (scrape() accumulates for the `le` exposition). `sum` is
/// the sum of observed values in the same unit as the bounds.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;
  std::uint64_t count = 0;
};

class MetricsRegistry {
 public:
  /// Label set of one series, rendered in the given order. Values are
  /// escaped on exposition; names must be valid Prometheus label names.
  using Labels = std::vector<std::pair<std::string, std::string>>;
  using CounterFn = std::function<std::uint64_t()>;
  using GaugeFn = std::function<double()>;
  using HistogramFn = std::function<HistogramSnapshot()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register one series under the family `name`. The first registration of
  /// a family fixes its help text and kind; a later registration with a
  /// conflicting kind, or a duplicate (name, labels) series, throws
  /// std::invalid_argument. Callbacks must stay valid for the registry's
  /// lifetime and be safe to call from any thread.
  void add_counter(const std::string& name, const std::string& help,
                   Labels labels, CounterFn fn);
  void add_gauge(const std::string& name, const std::string& help,
                 Labels labels, GaugeFn fn);
  void add_histogram(const std::string& name, const std::string& help,
                     Labels labels, HistogramFn fn);

  /// Unregister every series whose label set contains the label
  /// `name="value"`; families left with no series disappear from the
  /// scrape. Returns how many series were removed. This exists for
  /// DYNAMIC components that hang instruments onto a longer-lived
  /// registry — a TcpServer on the engine's scrape page deregisters its
  /// nnlut_net_* series (labeled with its listen port) on stop(), so its
  /// callbacks never outlive it and a later server reusing the port can
  /// register cleanly. Static components (model slots) never deregister:
  /// family-then-registration scrape order stays deterministic either way.
  std::size_t remove_labeled(const std::string& name, const std::string& value);

  /// Prometheus text exposition of every registered series, evaluated now.
  std::string scrape() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    CounterFn counter;      // kCounter
    GaugeFn gauge;          // kGauge
    HistogramFn histogram;  // kHistogram
  };

  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<Series> series;
  };

  Family& family(const std::string& name, const std::string& help, Kind kind)
      NNLUT_REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<Family> families_ NNLUT_GUARDED_BY(mu_);
};

}  // namespace nnlut::obs
