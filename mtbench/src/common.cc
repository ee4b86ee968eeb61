#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace mtbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

bool Percentile(std::vector<double> v, double q, double* out) {
  const double n = static_cast<double>(v.size());
  if (v.empty() || n * (1 - q) < 10) return false;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  *out = v[rank - 1];
  return true;
}

bool TailPercentile(const std::vector<double>& v, double* q, double* out) {
  for (double candidate : {0.999, 0.99, 0.95, 0.9}) {
    if (Percentile(v, candidate, out)) {
      *q = candidate;
      return true;
    }
  }
  return false;
}

std::string Distribution(std::vector<double> v, double scale) {
  if (v.empty()) return "n=0";
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))] *
           scale;
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g",
                v.size(), v.front() * scale, at(0.25), Median(v) * scale,
                at(0.75), v.back() * scale);
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t ReferenceKernel() {
  uint64_t x = 42;
  std::vector<uint64_t> keys(1 << 17);
  for (uint64_t& k : keys) k = SplitMix(&x);
  std::unordered_map<uint64_t, uint64_t> map;
  for (size_t i = 0; i < keys.size() / 2; ++i) map.emplace(keys[i], i);
  uint64_t sum = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (uint64_t k : keys) {
      auto it = map.find(k);
      if (it != map.end()) sum += it->second;
    }
  }
  std::vector<std::string> text;
  for (size_t i = 0; i < keys.size() / 4; ++i) {
    text.push_back(std::to_string(keys[i]));
  }
  std::sort(text.begin(), text.end());
  return sum + text.front().size();
}

double ReferenceSeconds(int threads) {
  std::vector<uint64_t> sums(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  const double t0 = NowSeconds();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&sums, t] { sums[static_cast<size_t>(t)] = ReferenceKernel(); });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = NowSeconds() - t0;
  // Using the results keeps the work from being optimised away.
  for (uint64_t s : sums) {
    if (s != sums.front()) std::abort();
  }
  return seconds;
}

}  // namespace

void HostSpeed::Sample() { samples_.push_back(ReferenceSeconds(threads_)); }

double HostSpeed::TimeScale() const {
  return samples_.empty() ? 1 : kNominalReferenceS / Median(samples_);
}

std::string HostSpeed::Describe() const {
  return "reference kernel on " + std::to_string(threads_) + " thread(s): " +
         Distribution(samples_, 1) + " s";
}

void Outcome::Fail(const std::string& why) {
  ++failed;
  if (first_failure.empty()) first_failure = why;
}

void Outcome::Merge(const Outcome& o) {
  attempted += o.attempted;
  failed += o.failed;
  if (first_failure.empty()) first_failure = o.first_failure;
}

void Report::Line(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  lines.emplace_back(buf);
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void EmitEndToEnd(const EndToEnd& e, const std::string& stream_note,
                  const std::string& geomean_note, Report* r) {
  const double rss = PeakRssMb();
  const Outcome& o = r->outcome;
  const double setup_s = e.setup_s * e.setup_scale;
  const double stream_s = e.stream_s * e.run_scale;
  const double geomean_ms = e.query_geomean_ms * e.run_scale;
  const double throughput = e.throughput_stmt_s / e.run_scale;
  r->Line("end-to-end metrics (times x host-speed scale; raw in brackets):");
  r->Line("  %-20s %12.6f s      [%.6f x %.4f]", "setup_s", setup_s,
          e.setup_s, e.setup_scale);
  r->Line("  %-20s %12.3f MB", "peak_rss_mb", rss);
  r->Line("  %-20s %12.6f ratio  (%llu / %llu)", "failed_frac",
          static_cast<double>(o.failed) / static_cast<double>(o.attempted),
          static_cast<unsigned long long>(o.failed),
          static_cast<unsigned long long>(o.attempted));
  r->Line("  %-20s %12.6f s      [%.6f x %.4f] (%s)", "stream_s", stream_s,
          e.stream_s, e.run_scale, stream_note.c_str());
  r->Line("  %-20s %12.6f ms     [%.6f x %.4f] (%s)", "query_geomean_ms",
          geomean_ms, e.query_geomean_ms, e.run_scale, geomean_note.c_str());
  r->Line("  %-20s %12.3f stmt/s [%.3f / %.4f]", "throughput_stmt_s",
          throughput, e.throughput_stmt_s, e.run_scale);
  r->Add("setup_s", setup_s, "s");
  r->Add("peak_rss_mb", rss, "MB");
  r->Add("stream_s", stream_s, "s");
  r->Add("query_geomean_ms", geomean_ms, "ms");
  r->Add("throughput_stmt_s", throughput, "stmt/s");
}

uint64_t SpanLog::Begin(uint64_t stmt, uint64_t parent,
                        const std::string& name) {
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, stmt, name, NowSeconds(), 0});
  return id;
}

void SpanLog::End(uint64_t id) { spans_[id - 1].end = NowSeconds(); }

std::vector<double> SpanLog::Durations(uint64_t stmt,
                                       const std::string& name) const {
  std::vector<double> v;
  for (const Span& s : spans_) {
    if (s.stmt == stmt && s.name == name) v.push_back(s.seconds());
  }
  return v;
}

double SpanLog::MedianOf(uint64_t stmt, const std::string& name) const {
  return Median(Durations(stmt, name));
}

double SpanLog::MinOf(uint64_t stmt, const std::string& name) const {
  const std::vector<double> v = Durations(stmt, name);
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double SpanLog::SumOf(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.seconds();
  }
  return sum;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!spans_.empty()) {
    const double t0 = spans_.front().start;
    for (const Span& s : spans_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %llu, \"parent\": %llu, \"stmt\": %llu, "
                    "\"name\": \"%s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f}\n",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.stmt), s.name.c_str(),
                    (s.start - t0) * 1e6, (s.end - t0) * 1e6);
      out << buf;
    }
  }
  return static_cast<bool>(out);
}

const std::vector<std::string>& OperatorKinds() {
  static const std::vector<std::string> kinds = {
      "Scan",   "IndexScan", "HashJoin", "Filter",  "Project",
      "Aggregate", "Sort",   "TopN",     "SubPlan", "InitPlan"};
  return kinds;
}

namespace {

struct OpNode {
  int depth = 0;
  std::string kind;
  bool header = false;  // SubPlan/InitPlan section header (no timing)
  double ms = 0;        // inclusive time; headers: sum of their operators
  int parent = -1;
  std::vector<int> children;
};

}  // namespace

std::map<std::string, double> OperatorSelfMs(const std::string& explain) {
  std::vector<OpNode> nodes;
  std::vector<int> stack;
  std::istringstream in(explain);
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos || line[first] == '[') continue;
    OpNode node;
    node.depth = static_cast<int>(first / 2);
    const size_t end = line.find_first_of(" (", first);
    node.kind = line.substr(first, end == std::string::npos
                                       ? std::string::npos
                                       : end - first);
    const size_t actual = line.find("[actual:");
    if (actual == std::string::npos) {
      node.header = node.kind == "SubPlan" || node.kind == "InitPlan";
      if (!node.header) continue;
    } else {
      const size_t t = line.find("time=", actual);
      if (t != std::string::npos) {
        node.ms = std::strtod(line.c_str() + t + 5, nullptr);
      }
    }
    while (!stack.empty() && nodes[stack.back()].depth >= node.depth) {
      stack.pop_back();
    }
    node.parent = stack.empty() ? -1 : stack.back();
    const int id = static_cast<int>(nodes.size());
    if (node.parent >= 0) nodes[node.parent].children.push_back(id);
    nodes.push_back(node);
    stack.push_back(id);
  }
  // Headers carry no timing of their own: their time is their operators'.
  for (int i = static_cast<int>(nodes.size()) - 1; i >= 0; --i) {
    if (!nodes[i].header) continue;
    for (int c : nodes[i].children) nodes[i].ms += nodes[c].ms;
  }
  std::map<std::string, double> self;
  for (const std::string& k : OperatorKinds()) self[k] = 0;
  self["other"] = 0;
  for (const OpNode& n : nodes) {
    if (n.header) continue;
    double ms = n.ms;
    for (int c : n.children) ms -= nodes[c].ms;
    std::string kind = n.kind;
    for (int p = n.parent; p >= 0; p = nodes[p].parent) {
      if (nodes[p].header) {
        kind = nodes[p].kind;
        break;
      }
    }
    if (self.count(kind) == 0) kind = "other";
    self[kind] += std::max(0.0, ms);
  }
  return self;
}

}  // namespace mtbench
