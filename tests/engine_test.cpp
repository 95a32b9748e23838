// Engine registry (apps/engine.hpp): registration sanity, alias resolution,
// and the cross-validation sweep — every registered engine that supports an
// app must produce the same result digest on the same input.
#include "apps/engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace sepo::apps {
namespace {

TEST(EngineRegistryTest, AppsAreRegisteredInDisplayOrder) {
  const auto& apps = all_apps();
  ASSERT_EQ(apps.size(), 7u);
  const char* expected[] = {"pvc", "ii", "dna", "netflix", "wc", "pc", "geo"};
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_STREQ(apps[i]->key, expected[i]);
    // Exactly one of the two app kinds is set.
    EXPECT_NE(apps[i]->standalone == nullptr, apps[i]->mr == nullptr);
    EXPECT_NE(apps[i]->table1_key(), nullptr);
  }
  EXPECT_EQ(find_app("pvc"), apps[0]);
  EXPECT_EQ(find_app("geo"), apps[6]);
  EXPECT_EQ(find_app("nope"), nullptr);
}

TEST(EngineRegistryTest, EnginesAreRegisteredWithUniqueNames) {
  const auto& engines = all_engines();
  ASSERT_EQ(engines.size(), 8u);
  std::set<std::string> names;
  for (const Engine* e : engines) {
    EXPECT_TRUE(names.insert(e->name()).second) << e->name();
    EXPECT_NE(e->describe(), nullptr);
    // Every engine runs at least one kind of app.
    EXPECT_TRUE(e->caps().standalone || e->caps().mapreduce) << e->name();
    EXPECT_EQ(find_engine(e->name()), e);
  }
  for (const char* n : {"sepo-gpu", "sepo-mr", "cpu", "phoenix", "pinned",
                        "mapcg", "stadium", "paging-sim"})
    EXPECT_NE(find_engine(n), nullptr) << n;
  EXPECT_EQ(find_engine("gpu"), nullptr);  // alias, not a registry name
}

TEST(EngineRegistryTest, AliasResolutionFollowsAppKind) {
  const AppInfo& pvc = *find_app("pvc");
  const AppInfo& wc = *find_app("wc");
  EXPECT_STREQ(resolve_engine("gpu", pvc)->name(), "sepo-gpu");
  EXPECT_STREQ(resolve_engine("gpu", wc)->name(), "sepo-mr");
  EXPECT_STREQ(resolve_engine("mr", pvc)->name(), "sepo-mr");
  EXPECT_STREQ(resolve_engine("stadium", pvc)->name(), "stadium");
  EXPECT_EQ(resolve_engine("nope", pvc), nullptr);
}

TEST(EngineRegistryTest, BaselineEngineMatchesAppKind) {
  EXPECT_STREQ(baseline_engine(*find_app("dna"))->name(), "cpu");
  EXPECT_STREQ(baseline_engine(*find_app("geo"))->name(), "phoenix");
}

TEST(EngineRegistryTest, SupportMatrixCoversEveryApp) {
  for (const AppInfo* app : all_apps()) {
    int supporting = 0;
    for (const Engine* e : all_engines())
      if (e->supports(*app)) ++supporting;
    // At minimum: the SEPO engine, the reference baseline, and one
    // alternative design per app.
    EXPECT_GE(supporting, 3) << app->key;
    EXPECT_TRUE(resolve_engine("gpu", *app)->supports(*app)) << app->key;
    EXPECT_TRUE(baseline_engine(*app)->supports(*app)) << app->key;
  }
  // The Figure 7 tables (sepo-gpu, cpu, pinned) run all seven apps; the
  // MapReduce runtimes (sepo-mr, phoenix, mapcg) only the MapReduce apps.
  for (const AppInfo* app : all_apps()) {
    for (const char* name : {"sepo-gpu", "cpu", "pinned"})
      EXPECT_TRUE(find_engine(name)->supports(*app)) << name << "/" << app->key;
    for (const char* name : {"sepo-mr", "phoenix", "mapcg"})
      EXPECT_EQ(find_engine(name)->supports(*app), app->is_mapreduce())
          << name << "/" << app->key;
  }
  // stadium runs every standalone app; paging-sim only the count-combining
  // standalone shape it can replay faithfully (Word Count has that shape,
  // but is a MapReduce app).
  EXPECT_TRUE(find_engine("stadium")->supports(*find_app("ii")));
  EXPECT_FALSE(find_engine("stadium")->supports(*find_app("wc")));
  EXPECT_TRUE(find_engine("paging-sim")->supports(*find_app("pvc")));
  EXPECT_FALSE(find_engine("paging-sim")->supports(*find_app("dna")));
  EXPECT_FALSE(find_engine("paging-sim")->supports(*find_app("ii")));
  EXPECT_FALSE(find_engine("paging-sim")->supports(*find_app("wc")));
}

// The registry's correctness oracle: for each app, every supporting engine
// run on the same tiny input must agree on the order-independent digest —
// including the stadium baseline, whose host-side merge reconstructs the
// combining/grouping semantics its design lacks.
TEST(EngineCrossValidationTest, AllSupportingEnginesAgreeOnDigests) {
  for (const AppInfo* app : all_apps()) {
    const std::string input = app->generate(96u << 10, /*seed=*/7);
    std::map<std::string, RunResult> results;
    for (const Engine* e : all_engines())
      if (e->supports(*app)) results.emplace(e->name(), e->run(*app, input, {}));
    ASSERT_GE(results.size(), 3u) << app->key;
    const RunResult& ref = results.at(baseline_engine(*app)->name());
    ASSERT_FALSE(ref.error) << app->key;
    EXPECT_GT(ref.keys, 0u) << app->key;
    for (const auto& [name, r] : results) {
      EXPECT_EQ(r.impl, name) << app->key;  // impl is the registry name
      ASSERT_FALSE(r.error) << app->key << "/" << name << ": "
                            << r.error.message;
      EXPECT_EQ(r.checksum, ref.checksum) << app->key << "/" << name;
    }
  }
}

// Capacity sweep: the SEPO contract under memory pressure is "postpone or
// decline, never answer wrong". With device memory at 0.5x, 1x, and 4x the
// input footprint, every engine must either match the baseline digest
// exactly or report a *typed* RunError — no raw exception may escape
// Engine::run. A 1 KiB device, too small for any engine's static
// structures or staging ring, must decline typed too.
TEST(EngineCrossValidationTest, CapacitySweepAgreesOrDeclinesTyped) {
  constexpr std::size_t kInputBytes = 48u << 10;
  // 64 KiB cushion covers the statics; the 1 KiB device has none.
  std::vector<std::size_t> device_sizes = {1u << 10};
  for (const double frac : {0.5, 1.0, 4.0})
    device_sizes.push_back(
        (64u << 10) +
        static_cast<std::size_t>(frac * static_cast<double>(kInputBytes)));
  for (const AppInfo* app : all_apps()) {
    const std::string input = app->generate(kInputBytes, /*seed=*/21);
    const Engine* base = baseline_engine(*app);
    const RunResult ref = base->run(*app, input, {});
    ASSERT_FALSE(ref.error) << app->key;
    for (const std::size_t device_bytes : device_sizes) {
      EngineConfig cfg;
      // Small bucket array so the static carve-out leaves the heap as the
      // contended resource.
      cfg.gpu.num_buckets = 1u << 10;
      cfg.gpu.device_bytes = device_bytes;
      for (const Engine* e : all_engines()) {
        if (e == base || !e->supports(*app)) continue;
        RunResult r;
        ASSERT_NO_THROW(r = e->run(*app, input, cfg))
            << app->key << "/" << e->name() << " device=" << device_bytes;
        if (r.error) {
          EXPECT_NE(r.error.kind, RunError::Kind::kNone)
              << app->key << "/" << e->name();
          EXPECT_STRNE(r.error.kind_name(), "none")
              << app->key << "/" << e->name();
          continue;  // a typed decline of service is a legal answer
        }
        EXPECT_EQ(r.checksum, ref.checksum)
            << app->key << "/" << e->name() << " device=" << device_bytes;
        EXPECT_EQ(r.keys, ref.keys)
            << app->key << "/" << e->name() << " device=" << device_bytes;
      }
    }
  }
}

}  // namespace
}  // namespace sepo::apps
