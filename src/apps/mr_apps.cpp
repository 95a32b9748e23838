#include "apps/mr_apps.hpp"

#include "apps/datagen.hpp"

namespace sepo::apps {

namespace {

void map_word_count(std::string_view record, mapreduce::Emitter& em) {
  std::size_t start = 0;
  while (start < record.size()) {
    std::size_t end = record.find(' ', start);
    if (end == std::string_view::npos) end = record.size();
    if (end > start) {
      if (em.emit_u64(record.substr(start, end - start), 1) ==
          core::Status::kPostpone)
        return;
    }
    start = end + 1;
  }
}

void map_geo_location(std::string_view record, mapreduce::Emitter& em) {
  // <articleId>\t<geo cell string>  ->  <cell, articleId>
  const std::size_t tab = record.find('\t');
  if (tab == std::string_view::npos) return;
  const std::string_view id = record.substr(0, tab);
  const std::string_view cell = record.substr(tab + 1);
  em.emit(cell, std::as_bytes(std::span{id.data(), id.size()}));
}

void map_patent_citation(std::string_view record, mapreduce::Emitter& em) {
  // "C<citing> P<cited>"  ->  <cited, citing>
  const std::size_t sp = record.find(' ');
  if (sp == std::string_view::npos) return;
  const std::string_view citing = record.substr(0, sp);
  const std::string_view cited = record.substr(sp + 1);
  em.emit(cited, std::as_bytes(std::span{citing.data(), citing.size()}));
}

std::string gen_wc(std::size_t bytes, std::uint64_t seed) {
  return gen_text({.target_bytes = bytes, .seed = seed});
}
std::string gen_geo(std::size_t bytes, std::uint64_t seed) {
  // Mild skew: geotag cells are many and no single cell dominates.
  return gen_geo_articles({.target_bytes = bytes, .seed = seed},
                          /*cells=*/40000, /*zipf_s=*/0.5);
}
std::string gen_pc(std::size_t bytes, std::uint64_t seed) {
  return gen_patents({.target_bytes = bytes, .seed = seed},
                     /*patents=*/60000, /*zipf_s=*/0.4);
}

}  // namespace

const MrApp& word_count_app() {
  static const MrApp app{.name = "Word Count",
                         .table1_key = "wc",
                         .mode = mapreduce::Mode::kMapReduce,
                         .generate = gen_wc,
                         .map = map_word_count,
                         .combine = core::combine_sum_u64};
  return app;
}

const MrApp& geo_location_app() {
  static const MrApp app{.name = "Geo Location",
                         .table1_key = "geo",
                         .mode = mapreduce::Mode::kMapGroup,
                         .generate = gen_geo,
                         .map = map_geo_location,
                         .combine = nullptr};
  return app;
}

const MrApp& patent_citation_app() {
  static const MrApp app{.name = "Patent Citation",
                         .table1_key = "pc",
                         .mode = mapreduce::Mode::kMapGroup,
                         .generate = gen_pc,
                         .map = map_patent_citation,
                         .combine = nullptr};
  return app;
}

}  // namespace sepo::apps
