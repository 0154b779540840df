// Serving workload: an in-process HotspotServer on loopback driven by an
// open-loop generator.
//
// Requests of 1-8 clips from a pre-generated pool are due on a fixed
// schedule (constant rate per ladder rung). At most four ServeClient
// connections carry them; a connection takes the next due request as
// soon as it is free, so when the server falls behind, requests wait
// client-side and their latency — timed from the due instant — shows
// it. How late each send left against its due time is the generator
// lag. Every response is checked against the oracle for its clips.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "hotspot/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

/// Offered rates of the open-loop ladder (requests/s); the two reported
/// rates are on it. Goodput is the highest rate whose p99 stays within
/// the latency limit with the success share met and no growing backlog.
const std::vector<double> kLadderRps = {
    150, 300, 400, 500, 600, 700, 800, 950, 1100, 1300, 1600};
constexpr double kLowRps = 150.0;
constexpr double kHighRps = 300.0;
constexpr double kLatencyLimitMs = 25.0;
constexpr double kSuccessShare = 0.999;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kMaxClips = 8;
constexpr std::size_t kPlanSize = 1024;  // distinct requests, cycled

/// A pre-generated request: `n` consecutive pool clips from `first`.
struct PlannedRequest {
  std::vector<layout::Clip> clips;
  std::vector<std::size_t> pool_index;
};

std::vector<PlannedRequest> plan_requests(const ServeWorkload& w) {
  Rng rng(w.seed ^ 0x5e7e5e7eULL);
  std::vector<PlannedRequest> plan(kPlanSize);
  for (PlannedRequest& r : plan) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, kMaxClips));
    const std::size_t first = rng.index(w.pool.size());
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = (first + k) % w.pool.size();
      r.pool_index.push_back(idx);
      r.clips.push_back(w.pool[idx]);
    }
  }
  return plan;
}

/// Oracle probabilities of every pool clip, per serving path.
struct Oracle {
  std::vector<double> fp32, int8;
  double threshold = 0.5;
};

Oracle make_oracle(const ServeWorkload& w) {
  Oracle o;
  o.threshold = w.oracle_fp32->decision_threshold();
  o.fp32.resize(w.pool.size());
  o.int8.resize(w.pool.size());
  parallel_for(0, w.pool.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      o.fp32[i] = w.oracle_fp32->predict_probability(w.pool[i]);
      o.int8[i] = w.oracle_int8->predict_probability(w.pool[i]);
    }
  });
  return o;
}

/// The ranked response the server must send for `r`: probability
/// descending, ties by ascending clip index.
std::vector<serve::RankedHit> expected_hits(const PlannedRequest& r,
                                            const Oracle& o, bool int8) {
  std::vector<serve::RankedHit> hits;
  for (std::size_t k = 0; k < r.pool_index.size(); ++k) {
    const double p = (int8 ? o.int8 : o.fp32)[r.pool_index[k]];
    hits.push_back({static_cast<std::uint32_t>(k), p,
                    hotspot::is_flagged(p, o.threshold)});
  }
  std::stable_sort(hits.begin(), hits.end(),
                   [](const serve::RankedHit& a, const serve::RankedHit& b) {
                     return a.probability > b.probability;
                   });
  return hits;
}

bool response_ok(const serve::ScoreResponse& resp, const PlannedRequest& r,
                 const Oracle& o) {
  const std::vector<serve::RankedHit> want =
      expected_hits(r, o, resp.mode == serve::ServeMode::kInt8);
  if (resp.hits.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (resp.hits[i].index != want[i].index ||
        resp.hits[i].probability != want[i].probability ||
        resp.hits[i].flagged != want[i].flagged)
      return false;
  return true;
}

struct Rung {
  double rate = 0.0;
  std::size_t sent = 0, ok = 0, failed = 0, int8 = 0;
  std::vector<double> latency_ms;  ///< from due time, sorted
  std::vector<double> service_ms;  ///< from send, sorted
  std::vector<double> lag_ms;      ///< send minus due, sorted
  double tail_lag_ms = 0.0;        ///< mean lag of the last tenth
  double seconds = 0.0;            ///< first due to last completion
  double cpu_s = 0.0;  ///< process CPU time (client and server) over the rung
  std::vector<std::string> failures;

  double p(double q) const { return quantile_sorted(latency_ms, q); }
};

/// A live server plus its client connections (everything the ladder
/// needs; built during set-up).
struct Harness {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::HotspotServer> server;
  std::vector<std::unique_ptr<serve::ServeClient>> clients;

  explicit Harness(const ServeWorkload& w)
      : registry(paper_config(), hotspot::EngineConfig{}) {
    registry.install(make_detector(w.calibration, /*int8=*/false), "bench");
    serve::ServeConfig config;
    config.session_workers = kConnections;
    server = std::make_unique<serve::HotspotServer>(registry, config);
    for (std::size_t c = 0; c < kConnections; ++c)
      clients.push_back(std::make_unique<serve::ServeClient>(
          "127.0.0.1", server->port(), "bench-" + std::to_string(c % 2)));
  }
  ~Harness() {
    for (auto& c : clients) {
      try {
        c->bye();
      } catch (const CheckError&) {
      }
    }
    clients.clear();
    server->shutdown();
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
};

/// Runs `n` requests due at `rate` per second; `offset` picks where in
/// the request plan this rung starts.
Rung run_rung(Harness& h, const std::vector<PlannedRequest>& plan,
              const Oracle& oracle, double rate, std::size_t n,
              std::size_t offset) {
  Rung rung;
  rung.rate = rate;
  std::vector<double> due_off(n), send_off(n, 0.0), done_off(n, 0.0);
  std::vector<char> ok(n, 0), int8(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    due_off[i] = static_cast<double>(i) / rate;
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(kConnections);
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      serve::ServeClient& client = *h.clients[c];
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        std::this_thread::sleep_until(at(due_off[i]));
        const PlannedRequest& req = plan[(offset + i) % plan.size()];
        send_off[i] = std::chrono::duration<double>(Clock::now() - t0).count();
        try {
          const serve::ScoreResponse resp = client.score(req.clips);
          ok[i] = response_ok(resp, req, oracle) ? 1 : 0;
          int8[i] = resp.mode == serve::ServeMode::kInt8 ? 1 : 0;
          if (!ok[i] && errors[c].empty())
            errors[c] = "response differs from the oracle";
        } catch (const std::exception& e) {  // refused, or the link died
          if (errors[c].empty()) errors[c] = e.what();
        }
        done_off[i] = std::chrono::duration<double>(Clock::now() - t0).count();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  rung.cpu_s = process_cpu_s() - cpu0;
  double last_done = 0.0;
  std::vector<double> lag(n);
  for (std::size_t i = 0; i < n; ++i) {
    ++rung.sent;
    rung.ok += ok[i] ? 1 : 0;
    rung.int8 += int8[i] ? 1 : 0;
    // A failed request misses any latency limit.
    rung.latency_ms.push_back(ok[i] ? (done_off[i] - due_off[i]) * 1e3
                                    : 1e9);
    rung.service_ms.push_back((done_off[i] - send_off[i]) * 1e3);
    lag[i] = (send_off[i] - due_off[i]) * 1e3;
    last_done = std::max(last_done, done_off[i]);
  }
  rung.failed = rung.sent - rung.ok;

  const std::size_t tail = std::max<std::size_t>(1, n / 10);
  for (std::size_t i = n - tail; i < n; ++i) rung.tail_lag_ms += lag[i];
  rung.tail_lag_ms /= static_cast<double>(tail);
  rung.lag_ms = lag;
  std::sort(rung.latency_ms.begin(), rung.latency_ms.end());
  std::sort(rung.service_ms.begin(), rung.service_ms.end());
  std::sort(rung.lag_ms.begin(), rung.lag_ms.end());
  rung.seconds = last_done;
  for (const std::string& e : errors)
    if (!e.empty()) rung.failures.push_back(e);
  return rung;
}

/// Every ladder rate is measured in several segments; its p50 and the
/// p99 that decides pass/fail are medians over the segments, so one
/// scheduler stall spoils at most one segment and cannot move them. The
/// two reported rates interleave their segments in time (ServeBench).
constexpr double kSegmentSeconds = 1.0;
/// Goodput-search rates: kSearchSegments back-to-back segments each
/// (about a thousand requests per rate near the knee), and the lowest
/// rate searched.
constexpr int kSearchSegments = 3;
constexpr double kSearchSegmentSeconds = 0.5;
constexpr double kMinRps = 20.0;
/// Nominal length of the goodput search (up to two rates past a knee
/// near 650 rps, as on a 4-core x86 host); segments shrink in proportion
/// when the budget is smaller.
constexpr double kSearchSeconds = 10.0;
/// Server starts timed (process CPU time) for set-up; the median is
/// reported.
constexpr int kServerStarts = 5;
/// Requests per p99 figure of the traced run: ten samples beyond it.
constexpr std::size_t kTailRequests = 1000;

void tally(const Rung& r, Results& out) {
  out.tally(r.sent, r.failed,
            (r.failures.empty() ? std::string("request failed")
                                : r.failures.front()) +
                " at " + std::to_string(r.rate) + " rps");
}

/// One offered rate, measured over its segments.
struct RatePoint {
  double rate = 0.0;
  std::vector<Rung> rungs;

  /// Median over segments of each segment's quantile `q`.
  double p(double q) const {
    std::vector<double> v;
    for (const Rung& r : rungs) v.push_back(r.p(q));
    return median(v);
  }
  double p50() const { return p(0.50); }
  double p99() const { return p(0.99); }
  /// Process CPU milliseconds per request sent, over all segments (a
  /// ratio of totals; see ScanBench::finish for why not a median).
  double cpu_ms_per_req() const {
    double cpu_s = 0.0, sent = 0.0;
    for (const Rung& r : rungs) {
      cpu_s += r.cpu_s;
      sent += static_cast<double>(r.sent);
    }
    return cpu_s * 1e3 / sent;
  }
  double success_share() const {
    double ok = 0.0, sent = 0.0;
    for (const Rung& r : rungs) {
      ok += static_cast<double>(r.ok);
      sent += static_cast<double>(r.sent);
    }
    return sent == 0.0 ? 0.0 : ok / sent;
  }
  double tail_lag_ms() const {
    std::vector<double> v;
    for (const Rung& r : rungs) v.push_back(r.tail_lag_ms);
    return median(v);
  }
  bool pass() const {
    return p99() <= kLatencyLimitMs && success_share() >= kSuccessShare &&
           tail_lag_ms() <= kLatencyLimitMs;
  }
  /// Completed requests per second of the rungs' wall time.
  double achieved_rps() const {
    double ok = 0.0, seconds = 0.0;
    for (const Rung& r : rungs) {
      ok += static_cast<double>(r.ok);
      seconds += r.seconds;
    }
    return ok / seconds;
  }
  json::Value to_json() const {
    json::Value o = json::Value::object();
    o.set("rate_rps", rate);
    json::Value segs = json::Value::array();
    for (const Rung& r : rungs) {
      json::Value g = json::Value::object();
      g.set("sent", r.sent);
      g.set("ok", r.ok);
      g.set("p50_ms", r.p(0.5));
      g.set("p99_ms", r.p(0.99));
      g.set("cpu_ms_per_req", r.cpu_s * 1e3 / static_cast<double>(r.sent));
      g.set("tail_lag_ms", r.tail_lag_ms);
      segs.push_back(std::move(g));
    }
    o.set("rungs", std::move(segs));
    o.set("p50_ms", p50());
    o.set("p99_ms", p99());
    o.set("cpu_ms_per_req", cpu_ms_per_req());
    o.set("pass", pass());
    return o;
  }
};

/// Drives the open-loop ladder against one harness, advancing through
/// the request plan so consecutive rungs send different requests.
struct Ladder {
  Harness& h;
  const std::vector<PlannedRequest>& plan;
  const Oracle& oracle;
  Results& out;
  std::size_t offset = 0;

  Rung rung(double rate, std::size_t n) {
    Rung r = run_rung(h, plan, oracle, rate, n, offset);
    offset += n;
    tally(r, out);
    return r;
  }
};

/// Goodput search: up the ladder from the high rate, or down it when
/// even the low rate fails; two failing rates in a row end the climb.
/// Returns the achieved rate of the highest passing point, moved toward
/// the next (failing) point by where log p99 crosses the limit between
/// them, so the figure moves smoothly instead of a rate at a time. When
/// no rate passes, the lowest one tried is scaled down by how far its
/// p99 overshoots the limit, so the figure stays positive and keeps
/// falling as the server gets slower. Every point goes to `ladder_json`.
double goodput_search(Ladder& ladder, const RatePoint& low,
                      const RatePoint& high, double scale,
                      json::Value& ladder_json) {
  const auto search_point = [&](double rate) {
    const std::size_t n = std::max<std::size_t>(
        20, static_cast<std::size_t>(rate * kSearchSegmentSeconds * scale));
    RatePoint p{rate, {}};
    for (int s = 0; s < kSearchSegments; ++s)
      p.rungs.push_back(ladder.rung(rate, n));
    return p;
  };
  std::vector<RatePoint> points{low, high};
  int failing = 0;
  for (double rate : kLadderRps) {
    if (rate <= kHighRps) continue;
    points.push_back(search_point(rate));
    failing = points.back().pass() ? 0 : failing + 1;
    if (failing == 2) break;
  }
  for (double rate = kLowRps / 2; !low.pass() && rate >= kMinRps; rate /= 2) {
    points.insert(points.begin(), search_point(rate));
    if (points.front().pass()) break;
  }
  for (const RatePoint& p : points) ladder_json.push_back(p.to_json());

  const RatePoint& lowest = points.front();
  double goodput = lowest.achieved_rps() *
                   std::min(1.0, kLatencyLimitMs / lowest.p99());
  for (std::size_t i = points.size(); i-- > 0;) {
    if (!points[i].pass()) continue;
    goodput = points[i].achieved_rps();
    if (i + 1 < points.size() &&
        points[i + 1].success_share() >= kSuccessShare) {
      const double p_lo = std::log(std::max(points[i].p99(), 1e-3));
      const double p_hi = std::log(points[i + 1].p99());
      const double frac =
          p_hi > p_lo
              ? std::clamp((std::log(kLatencyLimitMs) - p_lo) / (p_hi - p_lo),
                           0.0, 1.0)
              : 0.0;
      goodput *= std::pow(points[i + 1].rate / points[i].rate, frac);
    }
    break;
  }
  return goodput;
}

}  // namespace

struct ServeBench::Impl {
  const std::vector<PlannedRequest> plan;
  const Oracle oracle;
  std::vector<double> starts, start_walls;
  std::optional<Harness> live;
  std::optional<Ladder> ladder;
  RatePoint low{kLowRps, {}}, high{kHighRps, {}};

  Impl(const ServeWorkload& w, Results& out)
      : plan(plan_requests(w)), oracle(make_oracle(w)) {
    // Start (and stop) the server several times; the last one serves.
    for (int i = 0; i < kServerStarts; ++i) {
      live.reset();
      const double cpu0 = process_cpu_s();
      const Clock::time_point t_start = Clock::now();
      live.emplace(w);
      starts.push_back(process_cpu_s() - cpu0);
      start_walls.push_back(seconds_since(t_start));
    }
    Harness& h = *live;
    // Warm the engine slabs, arenas and every connection.
    for (std::size_t c = 0; c < kConnections; ++c)
      (void)h.clients[c]->score(plan[c].clips);
    ladder.emplace(Ladder{h, plan, oracle, out});
    // Warm-up rung (checked, not reported): settles thread wake-ups.
    (void)ladder->rung(kLowRps, 60);
  }
};

ServeBench::ServeBench(const ServeWorkload& w, Results& out)
    : impl_(new Impl(w, out)) {}
ServeBench::~ServeBench() = default;

double ServeBench::server_start_s() const { return median(impl_->starts); }

void ServeBench::segment() {
  Impl& m = *impl_;
  const auto count = [](double rate) {
    return static_cast<std::size_t>(rate * kSegmentSeconds);
  };
  m.low.rungs.push_back(m.ladder->rung(kLowRps, count(kLowRps)));
  m.high.rungs.push_back(m.ladder->rung(kHighRps, count(kHighRps)));
}

void ServeBench::finish(Results& out) {
  Impl& m = *impl_;
  out.set("serve_cpu_ms_per_req_low", m.low.cpu_ms_per_req(), "ms");
  out.set("serve_cpu_ms_per_req_high", m.high.cpu_ms_per_req(), "ms");

  json::Value serve = json::Value::object();
  serve.set("server_start_cpu_s", spread_json(m.starts));
  serve.set("server_start_wall_s", spread_json(m.start_walls));
  serve.set("connections", kConnections);
  json::Value ladder_json = json::Value::array();
  for (const RatePoint* p : {&m.low, &m.high}) ladder_json.push_back(p->to_json());
  serve.set("ladder", std::move(ladder_json));
  out.meta.set("serve", std::move(serve));
}

void run_serve_traced(const ServeWorkload& w, double budget_s, Results& out) {
  const std::vector<PlannedRequest> plan = plan_requests(w);
  const Oracle oracle = make_oracle(w);
  Harness h(w);
  for (std::size_t c = 0; c < kConnections; ++c)
    (void)h.clients[c]->score(plan[c].clips);
  // One rung at each reported rate, untraced then instrumented.
  const double pass_s = kTailRequests / kLowRps + kTailRequests / kHighRps;
  const std::size_t n = std::max<std::size_t>(
      20, static_cast<std::size_t>(
              kTailRequests * std::min(1.0, budget_s / (2.0 * pass_s))));
  Ladder ladder{h, plan, oracle, out};

  // Untraced, then instrumented: metrics, library spans, sampled
  // client tracing, all read back through the public stats endpoint.
  const auto pass = [&] {
    return std::vector<Rung>{ladder.rung(kLowRps, n),
                             ladder.rung(kHighRps, n)};
  };
  const std::vector<Rung> plain = pass();
  metrics::reset();
  metrics::set_enabled(true);
  trace::set_enabled(true);
  for (auto& c : h.clients) c->set_tracing(true);
  const json::Value before = json::parse(h.clients[0]->stats_json());
  const std::vector<Rung> traced = pass();
  const json::Value after = json::parse(h.clients[0]->stats_json());
  for (auto& c : h.clients) c->set_tracing(false);
  trace::set_enabled(false);
  trace::clear();
  metrics::set_enabled(false);

  // Goodput, untraced, after everything the stats above describe; the
  // untraced rungs at the two reported rates seed the search.
  json::Value search = json::Value::array();
  const double goodput = goodput_search(
      ladder, RatePoint{kLowRps, {plain[0]}}, RatePoint{kHighRps, {plain[1]}},
      std::min(1.0, budget_s / kSearchSeconds), search);
  out.set("serve.goodput_rps", goodput, "1/s");

  out.set("serve.p50_ms_low", plain[0].p(0.5), "ms");
  out.set("serve.p50_ms_high", plain[1].p(0.5), "ms");
  out.set("serve.p99_ms_low", plain[0].p(0.99), "ms");
  out.set("serve.p99_ms_high", plain[1].p(0.99), "ms");
  out.set("trace.overhead_frac",
          traced[1].p(0.5) / plain[1].p(0.5) - 1.0, "ratio");
  const json::Value* hist = after.find("metrics");
  hist = hist ? hist->find("histograms") : nullptr;
  const auto hq = [&](const std::string& name, const char* q) {
    const json::Value* h_ = hist ? hist->find(name) : nullptr;
    const json::Value* v = h_ ? h_->find(q) : nullptr;
    return v ? v->as_number() : 0.0;
  };
  double stage_sum_ms = 0.0;
  for (const char* stage : {"decode", "quota", "score", "rank", "send"}) {
    const std::string name = std::string("serve.stage.") + stage + "_seconds";
    out.set(std::string("serve.stage.") + stage + "_ms_p50",
            hq(name, "p50") * 1e3, "ms");
    out.set(std::string("serve.stage.") + stage + "_ms_p99",
            hq(name, "p99") * 1e3, "ms");
    stage_sum_ms += hq(name, "mean") * 1e3;
  }
  double service_ms = 0.0, requests = 0.0;
  for (const Rung& r : traced) {
    for (double s : r.service_ms) service_ms += s;
    requests += static_cast<double>(r.service_ms.size());
  }
  out.set("trace.stage_coverage", stage_sum_ms / (service_ms / requests),
          "ratio");
  out.set("hotspot.engine.queue_wait_ms_p50",
          hq("engine.queue_wait_seconds", "p50") * 1e3, "ms");
  out.set("hotspot.engine.queue_wait_ms_p99",
          hq("engine.queue_wait_seconds", "p99") * 1e3, "ms");
  out.set("hotspot.engine.batch_fill", hq("engine.batch_fill", "mean"),
          "ratio");
  const auto engine_delta = [&](const char* key) {
    const json::Value* a = after.find("engine");
    const json::Value* b = before.find("engine");
    const json::Value* av = a ? a->find(key) : nullptr;
    const json::Value* bv = b ? b->find(key) : nullptr;
    return (av ? av->as_number() : 0.0) - (bv ? bv->as_number() : 0.0);
  };
  out.set("hotspot.engine.flush_full", engine_delta("flush_full"), "count");
  out.set("hotspot.engine.flush_timeout", engine_delta("flush_timeout"),
          "count");
  out.set("hotspot.engine.flush_inline", engine_delta("inline_batches"),
          "count");
  const json::Value* server = after.find("server");
  const double busy =
      server && server->find("busy_rejections")
          ? server->find("busy_rejections")->as_number()
          : 0.0;
  double sent = 0.0, int8 = 0.0;
  for (const std::vector<Rung>* set : {&plain, &traced})
    for (const Rung& r : *set) {
      sent += static_cast<double>(r.sent);
      int8 += static_cast<double>(r.int8);
    }
  out.set("serve.shed_frac", busy / sent, "ratio");
  out.set("serve.int8_frac", int8 / sent, "ratio");
  out.set("serve.gen_lag_ms_p99", quantile_sorted(traced[1].lag_ms, 0.99),
          "ms");

  // Wire codec cost on the real request and response bodies.
  double enc_s = 0.0, dec_s = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    serve::ScoreRequest req;
    req.request_id = i + 1;
    req.clips = plan[i].clips;
    serve::ScoreResponse resp;
    resp.request_id = i + 1;
    resp.model_generation = 1;
    resp.hits = expected_hits(plan[i], oracle, false);
    const Clock::time_point t0 = Clock::now();
    const std::string req_body = serve::encode_score_request(req);
    const std::string resp_body = serve::encode_score_response(resp);
    const Clock::time_point t1 = Clock::now();
    const serve::ScoreRequest req2 =
        serve::decode_score_request(req_body, "bench");
    const serve::ScoreResponse resp2 =
        serve::decode_score_response(resp_body, "bench");
    const Clock::time_point t2 = Clock::now();
    enc_s += std::chrono::duration<double>(t1 - t0).count();
    dec_s += std::chrono::duration<double>(t2 - t1).count();
    out.check(req2.clips.size() == req.clips.size() &&
                  resp2.hits.size() == resp.hits.size(),
              "wire round trip lost clips or hits");
  }
  out.set("serve.protocol.encode_us",
          enc_s * 1e6 / static_cast<double>(plan.size()), "us");
  out.set("serve.protocol.decode_us",
          dec_s * 1e6 / static_cast<double>(plan.size()), "us");

  json::Value serve = json::Value::object();
  json::Value rungs = json::Value::array();
  for (const std::vector<Rung>* set : {&plain, &traced})
    for (const Rung& r : *set) rungs.push_back(RatePoint{r.rate, {r}}.to_json());
  serve.set("untraced_then_traced", std::move(rungs));
  serve.set("latency_limit_ms", kLatencyLimitMs);
  serve.set("success_share", kSuccessShare);
  serve.set("goodput_search", std::move(search));
  out.meta.set("serve", std::move(serve));
}

}  // namespace perfbench
