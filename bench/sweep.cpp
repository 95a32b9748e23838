#include "sweep.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "gpusim/fault.hpp"
#include "gpusim/thread_pool.hpp"

namespace sepo::bench {

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::exit(1);
}

}  // namespace

const char* Pair::verdict() const {
  if (run.error) return run.error.kind_name();
  if (ref.error) return ref.error.kind_name();
  return ok() ? "match" : "MISMATCH";
}

Sweep::Sweep(const char* tool, int argc, char** argv) : report_(tool) {
  // Written into the metrics file, so it says how to regenerate itself.
  std::string command = tool;
  for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
  out_ = obs::OutputOptions::from_args(argc, argv);
  const std::size_t workers = apps::pool_workers_from_args(argc, argv);
  cfg_.gpu.pool_workers = workers;
  cfg_.cpu.pool_workers = workers;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      tiny_ = true;
      continue;
    }
    if (a.rfind("--fault-", 0) != 0) usage_error("unknown option: " + a);
    if (i + 1 >= argc) usage_error(a + " requires a value");
    try {
      if (!gpusim::apply_fault_flag(cfg_.gpu.faults, a, argv[++i]))
        usage_error("unknown option: " + a);
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
  }
  report_.set_field("command", command);
  report_.set_field("workers",
                    static_cast<std::uint64_t>(
                        gpusim::ThreadPool::resolve_workers(workers)));
  if (out_.trace_enabled()) rec_ = std::make_unique<obs::TraceRecorder>();
}

apps::RunResult Sweep::execute(const apps::AppInfo& app,
                               const apps::Engine& engine,
                               std::string_view input, apps::EngineConfig cfg,
                               const obs::Json& extra) {
  if (rec_ && engine.caps().trace) {
    std::string section = app.title;
    if (const obs::Json* d = extra.find("dataset"))
      section += " #" + std::to_string(d->as_i64());
    rec_->begin_section(section + " " + engine.name());
    cfg.gpu.trace = rec_.get();
  }
  return engine.run(app, input, cfg);
}

obs::Json Sweep::checked(const Pair& p, obs::Json extra) {
  if (!p.ok()) ++failed_pairs_;
  extra.set("speedup", p.speedup());
  extra.set("digest_match", p.run.checksum == p.ref.checksum);
  return extra;
}

apps::RunResult Sweep::run(const apps::AppInfo& app,
                           const apps::Engine& engine, std::string_view input,
                           const apps::EngineConfig& cfg, obs::Json extra) {
  apps::RunResult r = execute(app, engine, input, cfg, extra);
  report_.add_run(app.title, r, std::move(extra));
  return r;
}

Pair Sweep::run_pair(const apps::AppInfo& app, const apps::Engine& engine,
                     const apps::Engine& ref, std::string_view input,
                     const apps::EngineConfig& cfg, obs::Json extra) {
  Pair p{execute(app, engine, input, cfg, extra),
         execute(app, ref, input, cfg, extra)};
  const obs::Json e = checked(p, std::move(extra));
  report_.add_run(app.title, p.run, e);
  report_.add_run(app.title, p.ref, e);
  return p;
}

Pair Sweep::run_against(const apps::AppInfo& app, const apps::Engine& engine,
                        const apps::RunResult& ref, std::string_view input,
                        const apps::EngineConfig& cfg, obs::Json extra) {
  Pair p{execute(app, engine, input, cfg, extra), ref};
  report_.add_run(app.title, p.run, checked(p, std::move(extra)));
  return p;
}

int Sweep::finish(const TablePrinter& table, const char* table_name) {
  if (out_.metrics_enabled()) {
    report_.add_table(table_name, table);
    std::string err;
    if (!report_.write_file(out_.metrics_path, &err)) {
      std::fprintf(stderr, "metrics: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", out_.metrics_path.c_str());
  }
  if (rec_) {
    std::string err;
    if (!rec_->write_file(out_.trace_path, &err)) {
      std::fprintf(stderr, "trace: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", out_.trace_path.c_str());
  }
  if (failed_pairs_ > 0) {
    std::fprintf(stderr, "%d run(s) failed or mismatched their reference\n",
                 failed_pairs_);
    return 1;
  }
  return 0;
}

}  // namespace sepo::bench
