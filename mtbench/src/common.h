// Shared pieces of the MTBase benchmark driver: command-line arguments,
// raw-sample statistics, the result report, the traced run's span log and
// the EXPLAIN (ANALYZE) per-operator split.
#ifndef MTBENCH_COMMON_H_
#define MTBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mtbench {

struct Args {
  std::string workload;  // mth-all | mth-own | serving
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;    // per-layer run instead of the timed run
  /// Corrupt one expected value before the run, so the workload's
  /// correctness gate must fire (the self-test's negative case).
  bool corrupt_expected = false;
  /// Where the traced run writes its spans, phase x operator table and
  /// scratch trace file.
  std::string out_dir = ".";
};

double NowSeconds();

/// Statistics over raw samples (no histogram buckets).
double Median(std::vector<double> v);
double GeoMean(const std::vector<double>& v);
/// Nearest-rank percentile `q` in (0, 1). Returns false (and leaves *out
/// untouched) unless at least 10 samples lie beyond it.
bool Percentile(std::vector<double> v, double q, double* out);
/// The highest of p99.9 / p99 / p95 / p90 that Percentile() supports;
/// returns false (no tail) below 100 samples.
bool TailPercentile(const std::vector<double>& v, double* q, double* out);
/// "n=N min=.. q1=.. median=.. q3=.. max=.." of `v` scaled by `scale`.
std::string Distribution(std::vector<double> v, double scale);
/// Process max RSS so far, in MB.
double PeakRssMb();

/// Host-speed normalisation. The speed of a shared host drifts (by up to 2x
/// over minutes on the one this benchmark was tuned on), so raw CPU-bound
/// times of runs minutes apart differ by more than a regression worth
/// catching. A run samples a fixed reference kernel next to its
/// measurements and reports CPU-bound times as on a host where the kernel
/// takes kNominalReferenceS: raw * TimeScale().
constexpr double kNominalReferenceS = 0.04;

class HostSpeed {
 public:
  explicit HostSpeed(int threads) : threads_(threads) {}
  /// Time the reference kernel (hashing, a hash table build and probe, and
  /// a string sort: the same work on every run and seed, none of it in the
  /// program under test) run on `threads` threads at once.
  void Sample();
  /// kNominalReferenceS / the median sample (1 without samples).
  double TimeScale() const;
  /// "reference kernel on T thread(s): n=.. median=.." for the summary.
  std::string Describe() const;

 private:
  int threads_;
  std::vector<double> samples_;
};

/// Statement accounting behind `attempted`, `failed` and failed_frac.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& why);
  void Merge(const Outcome& o);
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports. `metrics` become the final JSON line; `lines` are
/// the human-readable summary printed above it.
struct Report {
  Outcome outcome;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// printf-style summary line.
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  std::string Json() const;
};

/// The gated end-to-end metrics, reported by every workload (the set in
/// BENCHMARK.json), as measured; the scales are HostSpeed::TimeScale() of
/// the reference samples taken beside the set-ups and beside the timed
/// work (1 where that work is not normalised).
struct EndToEnd {
  double setup_s;
  double stream_s;
  double query_geomean_ms;
  double throughput_stmt_s;
  double setup_scale;
  double run_scale;
};

/// Add the gated metrics, normalised to host speed, (plus peak_rss_mb) to
/// `report` and print them with the raw values and failed_frac;
/// `stream_note` / `geomean_note` say what a pass and a statement kind are
/// on this workload.
void EmitEndToEnd(const EndToEnd& e, const std::string& stream_note,
                  const std::string& geomean_note, Report* report);

/// The traced run's spans, kept in memory and written as JSONL at exit.
/// Each span has a name, start, end, parent span id (0 = root) and the id
/// of the statement it belongs to.
class SpanLog {
 public:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t stmt;
    std::string name;
    double start;
    double end;
    double seconds() const { return end - start; }
  };

  /// Open a span; close it with End().
  uint64_t Begin(uint64_t stmt, uint64_t parent, const std::string& name);
  void End(uint64_t id);

  /// Time `fn()` as a span named `name` under `parent`.
  template <typename Fn>
  auto Time(uint64_t stmt, uint64_t parent, const std::string& name, Fn&& fn) {
    const uint64_t id = Begin(stmt, parent, name);
    auto r = fn();
    End(id);
    return r;
  }

  /// Median / minimum duration (seconds) of statement `stmt`'s spans named
  /// `name`, 0 if there are none.
  double MedianOf(uint64_t stmt, const std::string& name) const;
  double MinOf(uint64_t stmt, const std::string& name) const;
  /// Sum of the durations of all spans named `name`.
  double SumOf(const std::string& name) const;

  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<double> Durations(uint64_t stmt, const std::string& name) const;

  std::vector<Span> spans_;
};

/// The operator kinds the per-layer report splits time by.
const std::vector<std::string>& OperatorKinds();

/// Per-operator-kind self time (ms) from an EXPLAIN (ANALYZE) rendering:
/// an operator's inclusive `time=` minus its children's, clamped at 0.
/// Operators beneath a `SubPlan`/`InitPlan` header count towards that
/// header's kind, so the kinds add up to the statement's execution time.
/// Kinds outside OperatorKinds() are summed under "other".
std::map<std::string, double> OperatorSelfMs(const std::string& explain);

}  // namespace mtbench

#endif  // MTBENCH_COMMON_H_
