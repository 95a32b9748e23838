#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace sepo::obs {

bool nearly_equal(double a, double b, double rel_eps) noexcept {
  if (a == b) return true;  // covers both-zero and exact matches
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <=
         rel_eps * std::max(std::fabs(a), std::fabs(b));
}

bool is_host_counter(std::string_view name) noexcept {
  return name == "lock_contended" || name == "atomic_retries";
}

Json to_json(const gpusim::StatsSnapshot& s) {
  Json j = Json::object();
  s.for_each_field([&j](const char* name, std::uint64_t v) {
    if (!is_host_counter(name)) j.set(name, v);
  });
  return j;
}

Json to_json(const gpusim::PcieSnapshot& p) {
  Json j = Json::object();
  j.set("h2d_bytes", p.h2d_bytes).set("h2d_txns", p.h2d_txns);
  j.set("d2h_bytes", p.d2h_bytes).set("d2h_txns", p.d2h_txns);
  j.set("remote_bytes", p.remote_bytes).set("remote_txns", p.remote_txns);
  return j;
}

Json to_json(const gpusim::SerializationInputs& s) {
  Json j = Json::object();
  j.set("total_lock_ops", s.total_lock_ops);
  j.set("max_same_lock_ops", s.max_same_lock_ops);
  j.set("serial_atomic_ops", s.serial_atomic_ops);
  return j;
}

Json to_json(const gpusim::TimelineSummary& t) {
  Json j = Json::object();
  j.set("compute_busy", t.compute_busy).set("h2d_busy", t.h2d_busy);
  j.set("d2h_busy", t.d2h_busy).set("remote_busy", t.remote_busy);
  j.set("total", t.total).set("commands", t.commands);
  return j;
}

Json to_json(const gpusim::FaultSummary& f) {
  Json j = Json::object();
  static constexpr const char* kEngineNames[gpusim::kNumTimelineResources] = {
      "compute", "h2d", "d2h", "remote"};
  for (int r = 0; r < gpusim::kNumTimelineResources; ++r) {
    const gpusim::EngineFaults& e = f.engine[r];
    Json ej = Json::object();
    ej.set("faults", e.faults);
    ej.set("retries", e.retries);
    ej.set("backoff_s", e.backoff_s);
    j.set(kEngineNames[r], std::move(ej));
  }
  j.set("total_faults", f.total_faults());
  j.set("total_backoff_s", f.total_backoff_s());
  return j;
}

Json to_json(const core::IterationProfile& p) {
  Json j = Json::object();
  j.set("iteration", p.iteration);
  j.set("records_processed", p.records_processed);
  j.set("records_postponed", p.records_postponed);
  j.set("postpone_rate", p.postpone_rate);
  j.set("page_acquires", p.page_acquires);
  j.set("kernel_launches", p.kernel_launches);
  j.set("hash_ops", p.hash_ops);
  j.set("chunks_staged", p.chunks_staged);
  j.set("chunks_skipped", p.chunks_skipped);
  j.set("bytes_staged", p.bytes_staged);
  j.set("halted", p.halted);
  j.set("free_pages_after", p.free_pages_after);
  j.set("resident_entry_bytes", p.resident_entry_bytes);
  j.set("flushed_bytes_total", p.flushed_bytes_total);
  j.set("distinct_entries_total", p.distinct_entries_total);
  j.set("hottest_bucket_ops", p.hottest_bucket_ops);
  return j;
}

Json to_json(const gpusim::OccupancySample& s) {
  Json j = Json::object();
  j.set("sim_ts", s.sim_ts);
  j.set("iteration", s.iteration);
  j.set("pages_total", s.pages_total);
  j.set("pages_free", s.pages_free);
  j.set("pages_seized", s.pages_seized);
  j.set("pages_used_peak", s.pages_used_peak);
  j.set("resident_entry_bytes", s.resident_entry_bytes);
  j.set("staging_slots", s.staging_slots);
  j.set("staging_busy", s.staging_busy);
  static constexpr const char* kEngineNames[gpusim::kNumTimelineResources] = {
      "compute", "h2d", "d2h", "remote"};
  Json engines = Json::object();
  for (int r = 0; r < gpusim::kNumTimelineResources; ++r) {
    Json e = Json::object();
    e.set("end", s.engine_end[r]);
    e.set("busy", s.engine_busy[r]);
    engines.set(kEngineNames[r], std::move(e));
  }
  j.set("engines", std::move(engines));
  return j;
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Json to_json(const apps::RunResult& r) {
  Json j = Json::object();
  j.set("impl", r.impl);
  j.set("sim_seconds", r.sim_seconds);
  j.set("serialization_s", r.serialization_seconds);
  // Host-dependent: wall clock of the *simulation host* and the counters
  // that depend on its thread scheduling, not results.
  j.set("wall_seconds_host", r.wall_seconds);
  Json host = Json::object();
  r.stats.for_each_field([&host](const char* name, std::uint64_t v) {
    if (is_host_counter(name)) host.set(name, v);
  });
  j.set("host", std::move(host));
  j.set("iterations", r.iterations);
  j.set("keys", r.keys);
  j.set("table_bytes", r.table_bytes);
  j.set("heap_bytes", r.heap_bytes);
  j.set("checksum_hex", hex64(r.checksum));
  j.set("stats", to_json(r.stats));
  j.set("pcie", to_json(r.pcie));
  j.set("serialization", to_json(r.serial));
  j.set("timeline", to_json(r.timeline));
  j.set("faults", to_json(r.faults));
  if (r.error) {
    Json err = Json::object();
    err.set("kind", r.error.kind_name());
    err.set("message", r.error.message);
    j.set("error", std::move(err));
  }
  Json profiles = Json::array();
  for (const auto& p : r.iteration_profiles) profiles.push_back(to_json(p));
  j.set("iteration_profiles", std::move(profiles));
  Json series = Json::array();
  for (const auto& s : r.timeseries) series.push_back(to_json(s));
  j.set("timeseries", std::move(series));
  Json hist = Json::array();
  for (const std::uint64_t n : r.bucket_histogram) hist.push_back(n);
  j.set("bucket_histogram", std::move(hist));
  return j;
}

Json table_to_json(const TablePrinter& t) {
  Json rows = Json::array();
  for (const auto& row : t.rows()) {
    Json obj = Json::object();
    for (std::size_t c = 0; c < t.headers().size() && c < row.size(); ++c)
      obj.set(t.headers()[c], row[c]);
    rows.push_back(std::move(obj));
  }
  return rows;
}

void MetricsReport::add_run(std::string_view app, const apps::RunResult& r,
                            Json extra) {
  Json run = Json::object();
  run.set("app", std::string(app));
  // Merge the standard serialization, then caller extras (which by
  // convention use their own keys and so never shadow standard fields).
  const Json standard = obs::to_json(r);
  for (const auto& [k, v] : standard.items()) run.set(k, v);
  if (extra.is_object())
    for (const auto& [k, v] : extra.items()) run.set(k, v);
  runs_.push_back(std::move(run));
}

void MetricsReport::add_table(std::string name, const TablePrinter& t) {
  tables_.set(std::move(name), table_to_json(t));
}

void MetricsReport::set_field(std::string key, Json value) {
  extras_.set(std::move(key), std::move(value));
}

Json MetricsReport::to_json() const {
  Json root = Json::object();
  root.set("schema_version", kMetricsSchemaVersion);
  root.set("tool", tool_);
  for (const auto& [k, v] : extras_.items()) root.set(k, v);
  Json runs = Json::array();
  for (const Json& r : runs_) runs.push_back(r);
  root.set("runs", std::move(runs));
  if (tables_.size() > 0) root.set("tables", tables_);
  return root;
}

bool MetricsReport::write_file(const std::string& path,
                               std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  to_json().write(out, 2);
  out << '\n';
  if (!out.good()) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

OutputOptions OutputOptions::from_args(int& argc, char** argv) {
  OutputOptions o;
  if (const char* env = std::getenv("SEPO_METRICS_OUT")) o.metrics_path = env;
  if (const char* env = std::getenv("SEPO_TRACE_OUT")) o.trace_path = env;
  if (const char* env = std::getenv("SEPO_JOURNAL_OUT")) o.journal_path = env;

  auto match = [](const char* arg, const char* flag,
                  std::string* out) -> int {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) != 0) return 0;
    if (arg[len] == '=') {
      *out = arg + len + 1;
      return 1;  // consumed this token
    }
    if (arg[len] == '\0') return 2;  // value is the next token
    return 0;
  };

  int w = 1;
  for (int i = 1; i < argc; ++i) {
    std::string* dest = nullptr;
    int kind = match(argv[i], "--metrics-out", &o.metrics_path);
    if (kind) {
      dest = &o.metrics_path;
    } else {
      kind = match(argv[i], "--trace-out", &o.trace_path);
      if (kind) {
        dest = &o.trace_path;
      } else {
        kind = match(argv[i], "--journal-out", &o.journal_path);
        if (kind) dest = &o.journal_path;
      }
    }
    if (kind == 2 && dest) {
      if (i + 1 < argc) {
        *dest = argv[++i];
      } else {
        std::fprintf(stderr, "%s requires a FILE argument\n", argv[i]);
      }
      continue;
    }
    if (kind == 1) continue;
    argv[w++] = argv[i];
  }
  argc = w;
  argv[argc] = nullptr;
  return o;
}

}  // namespace sepo::obs
