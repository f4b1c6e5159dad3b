#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace perfbench {

std::map<std::string, Tracer::NameTotals> Tracer::totals(
    const std::string& lane_prefix) const {
  std::map<std::string, NameTotals> out;
  for (const Lane& l : lanes_) {
    if (l.name.rfind(lane_prefix, 0) != 0) continue;
    std::vector<double> child_ns(l.spans.size(), 0.0);
    for (const Span& s : l.spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.t1 - s.t0);
      }
    }
    for (std::size_t i = 0; i < l.spans.size(); ++i) {
      const Span& s = l.spans[i];
      const double dur = static_cast<double>(s.t1 - s.t0);
      NameTotals& t = out[s.name];
      t.self_ns += dur - child_ns[i];
      t.count += 1;
    }
  }
  return out;
}

double Tracer::reconcile_error(const std::string& lane_prefix) const {
  double worst = 0;
  for (const Lane& l : lanes_) {
    if (l.name.rfind(lane_prefix, 0) != 0 || l.end_ns <= l.begin_ns) continue;
    double roots = 0;
    for (const Span& s : l.spans) {
      if (s.parent < 0) roots += static_cast<double>(s.t1 - s.t0);
    }
    const double wall = static_cast<double>(l.end_ns - l.begin_ns);
    worst = std::max(worst, std::abs(1.0 - roots / wall));
  }
  return worst;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"lanes\":[";
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    const Lane& l = lanes_[li];
    out << (li ? "," : "") << "{\"name\":\"" << l.name << "\",\"begin_ns\":"
        << l.begin_ns << ",\"end_ns\":" << l.end_ns << ",\"spans\":[";
    for (std::size_t i = 0; i < l.spans.size(); ++i) {
      const Span& s = l.spans[i];
      out << (i ? "," : "") << "[\"" << s.name << "\"," << s.parent << ","
          << s.t0 << "," << s.t1 << "]";
    }
    out << "]}";
  }
  out << "]}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    t.value = v.back();
    return t;
  }
  const std::size_t idx = v.size() - 11;  // ten samples lie beyond it
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

double rss_mb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

TempDir::TempDir(const std::string& root) {
  std::filesystem::create_directories(root);
  // The pid in the name lets a later run remove directories whose process
  // was killed before its destructors ran.
  std::string templ = root + "/perfbench-" + std::to_string(getpid()) + "-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + root);
  }
  path_ = templ;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

CpuSample cpu_sample() {
  CpuSample s;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t v[10] = {};
  for (std::uint64_t& x : v) in >> x;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already counted in user.
  for (int i = 0; i < 8; ++i) s.total += v[i];
  s.idle = v[3] + v[4];
  s.steal = v[7];
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.self_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  return s;
}

HostLoad host_load(const CpuSample& a, const CpuSample& b) {
  HostLoad h;
  if (b.total <= a.total) return h;
  const double total = static_cast<double>(b.total - a.total);
  const double idle = static_cast<double>(b.idle - a.idle);
  const double steal = static_cast<double>(b.steal - a.steal);
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double self = (b.self_s - a.self_s) * hz;
  h.steal_share = steal / total;
  h.foreign_share = std::max(0.0, (total - idle - steal - self) / total);
  return h;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Milliseconds for a fixed dependent integer loop (median of three): a
/// slow host shows up here whatever the workload measured.
double loop_ms() {
  std::vector<double> t;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = now_ns();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = static_cast<std::uint64_t>(r) + 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    sink = x;
    (void)sink;
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(t);
}

}  // namespace

std::string host_fingerprint_json(const std::string& commit, const HostLoad& load) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string val = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 && model == "unknown") {
      model = val;
    } else if (key == "flags" && flags.empty()) {
      std::istringstream words(val);
      std::string w;
      for (const char* want : {"sse4_2", "avx2", "bmi2", "avx512f", "avx512bw"}) {
        words.clear();
        words.seekg(0);
        while (words >> w) {
          if (w == want) {
            flags += flags.empty() ? w : " " + w;
            break;
          }
        }
      }
    }
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                ",\"steal_share\":%.6f,\"foreign_share\":%.6f,\"loop_ms\":%.3f}",
                load.steal_share, load.foreign_share, loop_ms());
  return "{\"cpu\":\"" + json_escape(model) + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) + ",\"isa\":\"" +
         flags + "\",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) +
         "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE + "\",\"commit\":\"" +
         json_escape(commit) + "\"" + buf;
}

}  // namespace perfbench
