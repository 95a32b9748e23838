#include "obs/fuzz_repro.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/journal.hpp"

namespace sepo::obs {

namespace {

// 16-hex-digit rendering shared with the metrics schema's checksum_hex:
// digests are u64 bit patterns, and hex strings survive JSON tooling that
// silently coerces large integers to doubles.
std::string u64_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> u64_from_hex(const std::string& s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                  : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                         : -1;
    if (d < 0) return std::nullopt;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

Json to_json(const apps::FuzzPlan& p) {
  Json f = Json::object();
  f.set("seed", p.faults.seed);
  f.set("h2d_rate", p.faults.h2d_rate);
  f.set("d2h_rate", p.faults.d2h_rate);
  f.set("remote_rate", p.faults.remote_rate);
  f.set("kernel_abort_rate", p.faults.kernel_abort_rate);
  f.set("pressure_rate", p.faults.pressure_rate);
  f.set("pressure_frac", p.faults.pressure_frac);
  f.set("pressure_hold_iterations", p.faults.pressure_hold_iterations);
  f.set("max_retries", p.faults.max_retries);
  f.set("backoff_base_s", p.faults.backoff_base_s);
  f.set("backoff_cap_s", p.faults.backoff_cap_s);

  Json j = Json::object();
  j.set("id", p.id);
  j.set("master_seed", p.master_seed);
  j.set("app", p.app);
  j.set("engine", p.engine);
  j.set("input_bytes", static_cast<std::uint64_t>(p.input_bytes));
  j.set("data_seed", p.data_seed);
  j.set("zipf_s", p.zipf_s);
  j.set("distinct_keys", static_cast<std::uint64_t>(p.distinct_keys));
  j.set("device_bytes", static_cast<std::uint64_t>(p.device_bytes));
  j.set("num_buckets", p.num_buckets);
  j.set("workers", static_cast<std::uint64_t>(p.workers));
  j.set("basic_halt_frac", p.basic_halt_frac);
  j.set("faults", std::move(f));
  j.set("corrupt_digest_xor_hex", u64_hex(p.corrupt_digest_xor));
  return j;
}

Json to_json(const apps::FuzzEngineOutcome& o) {
  Json j = Json::object();
  j.set("status", apps::to_string(o.status));
  if (o.status != apps::FuzzStatus::kOk) {
    j.set("error_kind", o.error_kind);
    j.set("message", o.message);
  } else {
    j.set("digest_hex", u64_hex(o.digest));
    j.set("keys", o.keys);
  }
  j.set("iterations", o.iterations);
  return j;
}

Json fuzz_repro_to_json(const apps::FuzzResult& r) {
  Json j = Json::object();
  j.set("fuzz_repro_version", kFuzzReproVersion);
  j.set("verdict", apps::to_string(r.verdict));
  j.set("plan", to_json(r.plan));
  j.set("engine", to_json(r.engine));
  j.set("baseline", to_json(r.baseline));
  j.set("journal_events", static_cast<std::uint64_t>(r.journal.size()));
  return j;
}

std::optional<apps::FuzzPlan> fuzz_plan_from_json(const Json& j,
                                                  std::string* error) {
  const auto bad = [&](const char* field) -> std::optional<apps::FuzzPlan> {
    if (error != nullptr)
      *error = std::string("fuzz plan: missing or mistyped field '") + field +
               "'";
    return std::nullopt;
  };
  if (!j.is_object()) return bad("(plan)");
  apps::FuzzPlan p;
  if (!j["id"].is_number()) return bad("id");
  p.id = j["id"].as_u64();
  if (!j["master_seed"].is_number()) return bad("master_seed");
  p.master_seed = j["master_seed"].as_u64();
  if (!j["app"].is_string()) return bad("app");
  p.app = j["app"].as_string();
  if (!j["engine"].is_string()) return bad("engine");
  p.engine = j["engine"].as_string();
  if (!j["input_bytes"].is_number()) return bad("input_bytes");
  p.input_bytes = j["input_bytes"].as_u64();
  if (!j["data_seed"].is_number()) return bad("data_seed");
  p.data_seed = j["data_seed"].as_u64();
  if (!j["zipf_s"].is_number()) return bad("zipf_s");
  p.zipf_s = j["zipf_s"].as_double();
  if (!j["distinct_keys"].is_number()) return bad("distinct_keys");
  p.distinct_keys = j["distinct_keys"].as_u64();
  if (!j["device_bytes"].is_number()) return bad("device_bytes");
  p.device_bytes = j["device_bytes"].as_u64();
  if (!j["num_buckets"].is_number()) return bad("num_buckets");
  p.num_buckets = static_cast<std::uint32_t>(j["num_buckets"].as_u64());
  if (!j["workers"].is_number()) return bad("workers");
  p.workers = j["workers"].as_u64();
  if (!j["basic_halt_frac"].is_number()) return bad("basic_halt_frac");
  p.basic_halt_frac = j["basic_halt_frac"].as_double();

  const Json& f = j["faults"];
  if (!f.is_object()) return bad("faults");
  for (const char* k :
       {"seed", "h2d_rate", "d2h_rate", "remote_rate", "kernel_abort_rate",
        "pressure_rate", "pressure_frac", "pressure_hold_iterations",
        "max_retries", "backoff_base_s", "backoff_cap_s"})
    if (!f[k].is_number()) return bad(k);
  p.faults.seed = f["seed"].as_u64();
  p.faults.h2d_rate = f["h2d_rate"].as_double();
  p.faults.d2h_rate = f["d2h_rate"].as_double();
  p.faults.remote_rate = f["remote_rate"].as_double();
  p.faults.kernel_abort_rate = f["kernel_abort_rate"].as_double();
  p.faults.pressure_rate = f["pressure_rate"].as_double();
  p.faults.pressure_frac = f["pressure_frac"].as_double();
  p.faults.pressure_hold_iterations =
      static_cast<std::uint32_t>(f["pressure_hold_iterations"].as_u64());
  p.faults.max_retries = static_cast<std::uint32_t>(f["max_retries"].as_u64());
  p.faults.backoff_base_s = f["backoff_base_s"].as_double();
  p.faults.backoff_cap_s = f["backoff_cap_s"].as_double();

  if (!j["corrupt_digest_xor_hex"].is_string())
    return bad("corrupt_digest_xor_hex");
  const auto xr = u64_from_hex(j["corrupt_digest_xor_hex"].as_string());
  if (!xr) return bad("corrupt_digest_xor_hex");
  p.corrupt_digest_xor = *xr;
  return p;
}

bool write_fuzz_repro(const apps::FuzzResult& r, const std::string& path,
                      std::string* error) {
  std::ofstream out(path);
  if (!out) return fail(error, "cannot open " + path + " for writing");
  fuzz_repro_to_json(r).write(out, 2);
  out << '\n';
  if (!out.good()) return fail(error, "write to " + path + " failed");
  if (!r.journal.empty() &&
      !write_journal_jsonl(r.journal, path + ".journal.jsonl",
                           /*max_events=*/4096, error))
    return false;
  return true;
}

std::optional<FuzzRepro> read_fuzz_repro(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot read " + path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string perr;
  const auto j = Json::parse(buf.str(), &perr);
  if (!j) {
    fail(error, path + ": " + perr);
    return std::nullopt;
  }
  if ((*j)["fuzz_repro_version"].as_i64() != kFuzzReproVersion) {
    fail(error, path + ": not a fuzz repro artifact (fuzz_repro_version != " +
                    std::to_string(kFuzzReproVersion) + ")");
    return std::nullopt;
  }
  std::string plan_err;
  auto plan = fuzz_plan_from_json((*j)["plan"], &plan_err);
  if (!plan) {
    fail(error, path + ": " + plan_err);
    return std::nullopt;
  }
  FuzzRepro repro;
  repro.plan = std::move(*plan);
  repro.verdict = (*j)["verdict"].as_string();
  return repro;
}

}  // namespace sepo::obs
