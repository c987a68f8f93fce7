#include "perf.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perf {

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q% of the samples at
  // or below it (the epsilon keeps 99.9% of 10000 at rank 9990, not 9991).
  const double rank =
      std::ceil(q / 100.0 * static_cast<double>(v.size()) - 1e-9);
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double tail_percentile(std::size_t n) {
  double best = 50.0;
  for (double q : {90.0, 99.0, 99.9, 99.99})
    // Samples strictly above the q-th percentile's rank.
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0 - 1e-9) best = q;
  return best;
}

std::string percentile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", q);
  return buf;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = median(samples);
  s.tail_q = tail_percentile(s.n);
  s.tail = percentile(samples, s.tail_q);
  return s;
}

// --- metric names ------------------------------------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-')
      return false;
  return true;
}

// --- span recorder -----------------------------------------------------------

namespace {

int this_thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next++;
  return index;
}

std::vector<int>& open_stack() {
  thread_local std::vector<int> stack;
  return stack;
}

}  // namespace

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t request,
                     int parent)
    : tracer_(t) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, request, parent);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0_).count();
}

int Tracer::open(const char* name, std::uint64_t request, int parent) {
  std::vector<int>& stack = open_stack();
  if (parent == kInnermost) parent = stack.empty() ? -1 : stack.back();
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.thread = this_thread_index();
  s.start_ms = now_ms();
  const int id = record(std::move(s));
  stack.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double end = now_ms();
  std::vector<int>& stack = open_stack();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ms = end;
}

int Tracer::record(Span s) {
  const std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"spans\": [\n";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                  "\"id\": %d, \"parent\": %d, \"request\": %llu, "
                  "\"thread\": %d}%s\n",
                  s.name.c_str(), s.start_ms, s.end_ms, s.id, s.parent,
                  static_cast<unsigned long long>(s.request), s.thread,
                  i + 1 < all.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[layer_of(spans[i].name)] += self[i];
  return out;
}

// --- open-loop generator -----------------------------------------------------

OpenLoopResult run_open_loop(
    std::size_t count, double rate, int connections,
    const std::function<bool(int, std::size_t)>& send) {
  OpenLoopResult r;
  r.latency_ms.assign(count, 0.0);
  r.late_ms.assign(count, 0.0);
  r.ok.assign(count, 0);
  r.window_s = static_cast<double>(count) / rate;
  if (count == 0) return r;

  const Clock::time_point t0 =
      Clock::now() + std::chrono::milliseconds(2);  // senders get ready
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  auto ms_since = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;  // guarded by mu
  bool closed = false;            // guarded by mu
  std::atomic<std::size_t> completed{0};

  std::vector<std::thread> senders;
  senders.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      for (;;) {
        std::size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        bool ok = false;
        try {
          ok = send(c, i);
        } catch (...) {
          ok = false;
        }
        r.ok[i] = ok ? 1 : 0;
        r.latency_ms[i] = ms_since(due(i), Clock::now());
        ++completed;
      }
    });
  }

  for (std::size_t i = 0; i < count; ++i) {
    std::this_thread::sleep_until(due(i));
    {
      const std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    r.late_ms[i] = ms_since(due(i), Clock::now());
    cv.notify_one();
  }
  std::this_thread::sleep_until(due(count));
  r.backlog_at_end = count - completed.load();
  {
    const std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : senders) t.join();
  return r;
}

// --- closed-loop saturation --------------------------------------------------

ClosedLoopResult run_closed_loop(
    double seconds, int connections, std::size_t max_requests,
    const std::function<bool(int, std::size_t)>& send) {
  ClosedLoopResult r;
  r.window_s = seconds;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> senders;
  senders.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      while (Clock::now() < end) {
        const std::size_t i = next++;
        if (i >= max_requests) return;
        bool ok = false;
        try {
          ok = send(c, i);
        } catch (...) {
          ok = false;
        }
        const Clock::time_point done = Clock::now();
        const std::lock_guard<std::mutex> lock(mu);
        if (!ok)
          ++r.failed;
        else if (done <= end)
          r.done_s.push_back(std::chrono::duration<double>(done - t0).count());
      }
    });
  }
  for (std::thread& t : senders) t.join();
  r.sent = std::min(next.load(), max_requests);
  std::sort(r.done_s.begin(), r.done_s.end());
  return r;
}

double median_block_rate(const std::vector<double>& done_s, double window_s,
                         double block_s) {
  const auto blocks = static_cast<std::size_t>(window_s / block_s + 1e-9);
  // Per block that holds completions: their count over the time since the
  // last completion before the block.  Every gap is counted once, in the
  // block where it ends, wherever the block edges fall.
  std::vector<double> rates;
  double prev = 0.0;
  std::size_t i = 0;
  for (std::size_t k = 0; k < blocks; ++k) {
    const double end = static_cast<double>(k + 1) * block_s;
    std::size_t n = 0;
    double last = prev;
    for (; i < done_s.size() && done_s[i] < end; ++i, ++n) last = done_s[i];
    if (n > 0 && last > prev) {
      rates.push_back(static_cast<double>(n) / (last - prev));
      prev = last;
    }
  }
  if (rates.empty())
    return window_s > 0 ? static_cast<double>(done_s.size()) / window_s : 0.0;
  return median(rates);
}

// --- CPU keep-alive ----------------------------------------------------------

IdlePollers::IdlePollers(int cpus) {
  for (int i = 0; i < cpus; ++i)
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0)
        return;
      ++running_;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
}

IdlePollers::~IdlePollers() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

// --- correctness -------------------------------------------------------------

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

MeanCheck check_mean(const std::vector<double>& costs, double exact,
                     double max_std_errors) {
  MeanCheck c;
  c.exact = exact;
  const std::size_t n = costs.size();
  if (n < 2) return c;
  c.mean = mean(costs);
  double ss = 0.0;
  for (double x : costs) ss += (x - c.mean) * (x - c.mean);
  c.std_error = std::sqrt(ss / static_cast<double>(n - 1) / static_cast<double>(n));
  const double dist = std::abs(c.mean - exact);
  if (c.std_error == 0.0) {
    c.z = dist <= 1e-9 ? 0.0 : INFINITY;
  } else {
    c.z = dist / c.std_error;
  }
  c.ok = std::isfinite(c.z) && c.z <= max_std_errors;
  return c;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_words(const std::uint64_t* w, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i)
    for (int b = 0; b < 8; ++b) {
      h ^= (w[i] >> (8 * b)) & 0xff;
      h *= kFnvPrime;
    }
  return h;
}

}  // namespace

std::uint64_t digest(const std::vector<std::uint64_t>& outcomes) {
  return fnv_words(outcomes.data(), outcomes.size());
}

std::uint64_t digest_bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits(values.size());
  if (!values.empty())
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return fnv_words(bits.data(), bits.size());
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perf
