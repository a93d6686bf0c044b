// Interactive shell over a generated world: link mentions, inspect
// scores, search, and teach the system with feedback — a hands-on tour of
// the whole online-inference pipeline.
//
// Build & run:   ./examples/mel_shell
// Commands:
//   link <user_id> <mention words...>   disambiguate a mention
//   tweet <user_id> <text...>           detect + link all mentions
//   search <user_id> <query...>         personalized search
//   confirm <user_id> <entity_id>       feedback: user's last text was
//                                       about this entity (now = latest)
//   entity <entity_id>                  show entity details
//   surfaces                            list a few ambiguous surfaces
//   save-index <path>                   build the 2-hop reachability index
//                                       over the world's social graph and
//                                       save it as a MEL3 container
//   load-mmap <path>                    memory-map a saved MEL3 index
//                                       (zero-copy; see docs/PERFORMANCE.md)
//   stats [path]                        dump the metrics registry as JSON
//                                       (to stdout, or to a file); includes
//                                       mapped-index stats when one is live,
//                                       and the SIMD tier/dispatch counters
//   stats-reset                         zero all pipeline metrics
//   quit                                exit
// EOF exits, so the binary is safe to run non-interactively.

#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/personalized_search.h"
#include "eval/harness.h"
#include "reach/reach_metrics.h"
#include "reach/two_hop_index.h"
#include "util/metrics.h"
#include "util/mmap_file.h"
#include "util/simd/simd.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace mel;

void ShowRanked(const eval::Harness& harness,
                const core::MentionLinkResult& result) {
  if (!result.linked()) {
    std::printf("  no candidates%s\n",
                result.probable_new_entity ? " (probable new entity)" : "");
    return;
  }
  for (const auto& s : result.ranked) {
    std::printf("  [%4u] %-24s score=%.3f (int=%.2f rec=%.2f pop=%.2f)\n",
                s.entity, harness.kb().entity(s.entity).name.c_str(),
                s.score, s.interest, s.recency, s.popularity);
  }
}

}  // namespace

int main() {
  std::printf("Generating the synthetic world (scale 0.5)...\n");
  eval::HarnessOptions hopts;
  hopts.scale = 0.5;
  eval::Harness harness(hopts);
  auto linker = harness.MakeLinker(harness.DefaultLinkerOptions());
  core::PersonalizedSearch search(&linker, &harness.ckb());
  const kb::Timestamp now = 90 * kb::kSecondsPerDay;
  kb::TweetId next_tweet_id = 10000000;
  // Held across commands so the mapping's lifetime can be poked at
  // interactively; replaced wholesale by each `load-mmap`.
  std::optional<reach::TwoHopIndex> mapped_index;

  std::printf(
      "Ready. %u entities, %zu surface forms, %u users. Type 'surfaces' "
      "for ambiguous mentions to play with, 'quit' to exit.\n",
      harness.kb().num_entities(), harness.kb().num_surface_forms(),
      harness.world().social.graph.num_nodes());

  std::string line;
  while (std::printf("mel> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;

    if (command == "quit" || command == "exit") break;

    if (command == "stats") {
      // Every command so far has flowed through the instrumented pipeline;
      // this is the live per-stage accounting (see docs/METRICS.md).
      std::string path;
      if (in >> path) {
        if (metrics::WriteJsonFile(path).ok()) {
          std::printf("  metrics written to %s\n", path.c_str());
        } else {
          std::printf("  cannot write %s\n", path.c_str());
        }
      } else {
        std::printf("%s\n",
                    metrics::Registry().Snapshot().ToJson().c_str());
      }
      // Hot-path summary (docs/PERFORMANCE.md): recency memoization and
      // candidate-generation fallback behaviour at a glance.
      auto counter = [](const char* name) {
        return metrics::Registry().GetCounter(name)->Value();
      };
      const uint64_t hits = counter("recency.cache.hits_total");
      const uint64_t misses = counter("recency.cache.misses_total");
      const uint64_t probes = hits + misses;
      std::printf(
          "  recency cache: %llu hits / %llu misses (%.0f%% hit rate), "
          "%llu invalidations\n",
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(misses),
          probes > 0 ? 100.0 * static_cast<double>(hits) /
                           static_cast<double>(probes)
                     : 0.0,
          static_cast<unsigned long long>(
              counter("recency.cache.invalidations_total")));
      std::printf(
          "  candidates: %llu exact hits, %llu fuzzy fallbacks "
          "(%llu unmatched)\n",
          static_cast<unsigned long long>(
              counter("candgen.exact_hits_total")),
          static_cast<unsigned long long>(
              counter("candgen.fuzzy.fallbacks_total")),
          static_cast<unsigned long long>(
              counter("candgen.fuzzy.unmatched_total")));
      // Mapped-index tier (docs/PERFORMANCE.md): what the reach.mmap.*
      // gauges say about the most recent index load in this process.
      auto gauge = [](const char* name) {
        return metrics::Registry().GetGauge(name)->Value();
      };
      const int64_t load_mode = gauge("reach.mmap.load_mode");
      const char* mode_name =
          load_mode == reach::kLoadModeMapped
              ? "mapped"
              : (load_mode == reach::kLoadModeCopied ? "copied" : "built");
      std::printf("  index load mode: %s", mode_name);
      if (mapped_index.has_value() && mapped_index->IsMapped()) {
        std::printf(", %s mapped (advice=%s)",
                    HumanBytes(mapped_index->MappedBytes()).c_str(),
                    util::MmapFile::AdviceName(
                        static_cast<util::MmapFile::Advice>(
                            gauge("reach.mmap.advice"))));
      }
      std::printf("\n");
      // SIMD kernel layer (docs/PERFORMANCE.md): active tier plus how
      // often each vectorized hot loop was dispatched.
      std::printf(
          "  simd: tier=%s, %llu merges, %llu gallops, %llu probes, "
          "%llu dense BFS levels\n",
          util::simd::LevelName(util::simd::ActiveLevel()),
          static_cast<unsigned long long>(
              counter("util.simd.merge_dispatch_total")),
          static_cast<unsigned long long>(
              counter("util.simd.gallop_dispatch_total")),
          static_cast<unsigned long long>(
              counter("util.simd.probe_dispatch_total")),
          static_cast<unsigned long long>(
              counter("util.simd.frontier_dense_levels_total")));
      continue;
    }

    if (command == "save-index") {
      std::string path;
      if (!(in >> path)) {
        std::printf("  usage: save-index <path>\n");
        continue;
      }
      WallTimer timer;
      auto index =
          reach::TwoHopIndex::Build(&harness.world().social.graph, 5);
      const double build_ns = static_cast<double>(timer.ElapsedNanos());
      timer.Restart();
      auto status = index.Save(path);
      if (!status.ok()) {
        std::printf("  save failed: %s\n", status.message().c_str());
        continue;
      }
      std::printf(
          "  built 2-hop index (%s arenas) in %s, saved MEL3 container "
          "to %s in %s\n",
          HumanBytes(index.IndexSizeBytes()).c_str(),
          HumanNanos(build_ns).c_str(), path.c_str(),
          HumanNanos(static_cast<double>(timer.ElapsedNanos())).c_str());
      continue;
    }

    if (command == "load-mmap") {
      std::string path;
      if (!(in >> path)) {
        std::printf("  usage: load-mmap <path>\n");
        continue;
      }
      WallTimer timer;
      auto loaded = reach::TwoHopIndex::LoadMapped(
          path, &harness.world().social.graph);
      if (!loaded.ok()) {
        std::printf("  load-mmap failed: %s\n",
                    loaded.status().message().c_str());
        continue;
      }
      mapped_index.emplace(std::move(loaded).value());
      std::printf(
          "  mapped %s in %s (zero-copy; pages fault in on demand). "
          "'stats' shows the reach.mmap.* gauges.\n",
          HumanBytes(mapped_index->MappedBytes()).c_str(),
          HumanNanos(static_cast<double>(timer.ElapsedNanos())).c_str());
      continue;
    }

    if (command == "stats-reset") {
      metrics::Registry().Reset();
      std::printf("  metrics reset\n");
      continue;
    }

    if (command == "surfaces") {
      const auto& surfaces = harness.world().kb_world.ambiguous_surfaces;
      for (size_t i = 0; i < std::min<size_t>(8, surfaces.size()); ++i) {
        auto cands = harness.kb().Candidates(surfaces[i]);
        std::printf("  %-16s -> %zu candidates\n", surfaces[i].c_str(),
                    cands.size());
      }
      continue;
    }

    if (command == "entity") {
      uint32_t id;
      if (!(in >> id) || id >= harness.kb().num_entities()) {
        std::printf("  usage: entity <id 0..%u>\n",
                    harness.kb().num_entities() - 1);
        continue;
      }
      const auto& rec = harness.kb().entity(id);
      std::printf("  name=%s category=%s linked_tweets=%u community=%zu\n",
                  rec.name.c_str(), kb::EntityCategoryName(rec.category),
                  harness.ckb().LinkedTweetCount(id),
                  harness.ckb().Community(id).size());
      continue;
    }

    uint32_t user;
    if (!(in >> user) ||
        user >= harness.world().social.graph.num_nodes()) {
      std::printf("  usage: %s <user_id> <text>\n", command.c_str());
      continue;
    }
    std::string rest;
    std::getline(in, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);

    if (command == "link") {
      ShowRanked(harness, linker.LinkMention(rest, user, now));
    } else if (command == "tweet") {
      kb::Tweet tweet;
      tweet.id = next_tweet_id++;
      tweet.user = user;
      tweet.time = now;
      tweet.text = rest;
      auto result = linker.LinkTweet(tweet);
      if (result.mentions.empty()) std::printf("  no mentions detected\n");
      for (const auto& mention : result.mentions) {
        std::printf("  mention '%s':\n", mention.surface.c_str());
        ShowRanked(harness, mention);
      }
    } else if (command == "search") {
      auto result = search.Query(rest, user, now, {});
      for (const auto& interp : result.interpretations) {
        std::printf("  '%s' interpreted as %s\n", interp.surface.c_str(),
                    interp.linked()
                        ? harness.kb().entity(interp.best()).name.c_str()
                        : "(nothing)");
      }
      for (const auto& hit : result.hits) {
        std::printf(
            "  [day %lld, user %u] %.60s\n",
            static_cast<long long>(hit.time / kb::kSecondsPerDay),
            hit.author,
            harness.world().corpus.tweets[hit.tweet].tweet.text.c_str());
      }
      if (result.hits.empty()) std::printf("  no results\n");
    } else if (command == "confirm") {
      uint32_t entity;
      std::istringstream entity_in(rest);
      if (!(entity_in >> entity) || entity >= harness.kb().num_entities()) {
        std::printf("  usage: confirm <user_id> <entity_id>\n");
        continue;
      }
      kb::Tweet tweet;
      tweet.id = next_tweet_id++;
      tweet.user = user;
      tweet.time = now;
      linker.ConfirmLink(entity, tweet);
      std::printf("  learned: user %u tweeted about %s (links now %u)\n",
                  user, harness.kb().entity(entity).name.c_str(),
                  harness.ckb().LinkedTweetCount(entity));
    } else {
      std::printf("  unknown command '%s'\n", command.c_str());
    }
  }
  std::printf("bye\n");
  return 0;
}
