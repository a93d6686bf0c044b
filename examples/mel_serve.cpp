// mel_serve: line-oriented front end of the online LinkService — the
// operational surface described in docs/SERVING.md. Requests are
// admitted into the bounded queue, dispatched in micro-batches, and
// feedback is applied at epoch barriers; `pause`/`resume` expose the
// batching machinery interactively.
//
// Build & run:   ./examples/mel_serve [--scale=X] [--batch=N]
//                                     [--queue=N] [--policy=block|shed|
//                                      deadline] [--workers=N]
//
// Protocol (one command per line on stdin, replies on stdout):
//   link <user> <mention...>     queue a mention; prints "queued #k"
//   sync <user> <mention...>     link synchronously, print the result
//   feedback <entity> <user>     author confirms entity (epoch barrier)
//   wait                         drain: resolve and print queued links
//   pause | resume               hold / release dispatch (batch demo)
//   epoch                        current feedback epoch
//   stats                        serve.* counters and latency tails
//   help | quit
//
// Example session (see docs/SERVING.md for a commented transcript):
//   pause
//   link 7 alicesmithx0
//   link 9 alicesmithx0
//   resume
//   wait
//   feedback 42 7
//   sync 7 alicesmithx0

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "serve/link_service.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace {

using namespace mel;

struct Queued {
  size_t id;
  std::string mention;
  std::future<serve::LinkResponse> future;
};

void PrintResponse(const std::string& mention,
                   const serve::LinkResponse& r) {
  if (r.status != serve::ServeStatus::kOk) {
    std::printf("  %-20s -> %s\n", mention.c_str(),
                serve::ServeStatusName(r.status));
    return;
  }
  std::printf("  %-20s epoch=%llu batch=%u wait=%lldus", mention.c_str(),
              static_cast<unsigned long long>(r.epoch), r.batch_size,
              static_cast<long long>(r.queue_wait_ns / 1000));
  if (r.result.ranked.empty()) {
    std::printf("  (no candidate%s)\n",
                r.result.probable_new_entity ? "; probable new entity" : "");
    return;
  }
  std::printf("\n");
  const size_t top = std::min<size_t>(r.result.ranked.size(), 3);
  for (size_t i = 0; i < top; ++i) {
    const auto& s = r.result.ranked[i];
    std::printf("    #%zu entity=%u score=%.4f (in=%.3f r=%.3f p=%.3f)\n",
                i + 1, s.entity, s.score, s.interest, s.recency,
                s.popularity);
  }
}

void PrintStats() {
  auto snapshot = metrics::Registry().Snapshot();
  std::printf("  counters:\n");
  for (const auto& [name, v] : snapshot.counters) {
    if (name.rfind("serve.", 0) == 0) {
      std::printf("    %-32s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    }
  }
  std::printf("  gauges:\n");
  for (const auto& [name, v] : snapshot.gauges) {
    if (name.rfind("serve.", 0) == 0) {
      std::printf("    %-32s %12lld\n", name.c_str(),
                  static_cast<long long>(v));
    }
  }
  std::printf("  distributions:\n");
  for (const auto& [name, h] : snapshot.histograms) {
    if (name.rfind("serve.", 0) != 0 || h.count == 0) continue;
    const bool nanos = name.size() > 3 &&
                       name.compare(name.size() - 3, 3, "_ns") == 0;
    const double unit = nanos ? 1e3 : 1.0;
    std::printf("    %-32s p50=%-8.0f p95=%-8.0f p99=%-8.0f %s\n",
                name.c_str(), h.Percentile(50) / unit,
                h.Percentile(95) / unit, h.Percentile(99) / unit,
                nanos ? "us" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.5;
  serve::ServeOptions sopts;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      sopts.max_batch = static_cast<uint32_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--queue=", 8) == 0) {
      sopts.queue_capacity = static_cast<size_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      sopts.num_workers = static_cast<uint32_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      const char* p = argv[i] + 9;
      if (std::strcmp(p, "shed") == 0) {
        sopts.policy = serve::AdmissionPolicy::kShed;
      } else if (std::strcmp(p, "deadline") == 0) {
        sopts.policy = serve::AdmissionPolicy::kDeadline;
        sopts.default_deadline_ns = int64_t{2} * 1000 * 1000 * 1000;
      }
    }
  }

  std::printf("Generating the synthetic microblog world (scale %.2f)...\n",
              scale);
  eval::HarnessOptions hopts;
  hopts.scale = scale;
  eval::Harness harness(hopts);
  core::EntityLinker linker =
      harness.MakeLinker(harness.DefaultLinkerOptions());

  kb::Timestamp now = 0;
  for (const auto& lt : harness.world().corpus.tweets) {
    now = std::max(now, lt.tweet.time);
  }
  now += 60;

  serve::LinkService service(&linker, sopts);
  std::printf(
      "serving: max_batch=%u queue=%zu policy=%s workers=%u\n"
      "try e.g.:  sync 7 %s\n"
      "type 'help' for the protocol.\n",
      sopts.max_batch, sopts.queue_capacity,
      serve::AdmissionPolicyName(sopts.policy), sopts.num_workers,
      harness.world().kb_world.ambiguous_surfaces.front().c_str());

  std::vector<Queued> pending;
  size_t next_id = 1;
  kb::TweetId next_tweet_id = 90000000;
  std::string line;
  std::printf("mel-serve> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd.empty()) {
      // fallthrough to prompt
    } else if (cmd == "link" || cmd == "sync") {
      uint32_t user = 0;
      std::string mention, word;
      in >> user;
      while (in >> word) {
        if (!mention.empty()) mention += ' ';
        mention += word;
      }
      if (mention.empty()) {
        std::printf("  usage: %s <user> <mention...>\n", cmd.c_str());
      } else {
        serve::LinkRequest request;
        request.mention = mention;
        request.user = user;
        request.now = now;
        if (cmd == "sync") {
          PrintResponse(mention, service.LinkSync(std::move(request)));
        } else {
          Queued q;
          q.id = next_id++;
          q.mention = mention;
          q.future = service.Submit(std::move(request));
          std::printf("  queued #%zu (depth now %zu)\n", q.id,
                      pending.size() + 1);
          pending.push_back(std::move(q));
        }
      }
    } else if (cmd == "feedback") {
      uint32_t entity = 0, user = 0;
      in >> entity >> user;
      if (!in) {
        // A missing or non-numeric id must not confirm entity/user 0.
        std::printf("  usage: feedback <entity> <user>\n");
      } else {
        kb::Tweet tweet;
        tweet.id = next_tweet_id++;
        tweet.user = user;
        tweet.time = now;
        auto ack = service.SubmitFeedback(entity, tweet);
        const uint64_t epoch = ack.get();
        if (epoch == serve::kFeedbackRejected) {
          // The service only stops on exit, so a rejection here means the
          // entity or user id is out of range.
          std::printf("  feedback rejected (invalid id)\n");
        } else {
          std::printf("  confirmed entity %u; visible from epoch %llu\n",
                      entity, static_cast<unsigned long long>(epoch));
        }
      }
    } else if (cmd == "wait") {
      service.Resume();  // a paused queue would never drain
      for (Queued& q : pending) {
        std::printf("  #%zu:\n", q.id);
        PrintResponse(q.mention, q.future.get());
      }
      pending.clear();
    } else if (cmd == "pause") {
      service.Pause();
      std::printf("  dispatch paused; links queue until 'resume'\n");
    } else if (cmd == "resume") {
      service.Resume();
      std::printf("  dispatch resumed\n");
    } else if (cmd == "epoch") {
      std::printf("  epoch %llu\n",
                  static_cast<unsigned long long>(service.epoch()));
    } else if (cmd == "stats") {
      PrintStats();
    } else if (cmd == "help") {
      std::printf(
          "  link <user> <mention...> | sync <user> <mention...> |\n"
          "  feedback <entity> <user> | wait | pause | resume |\n"
          "  epoch | stats | quit\n");
    } else {
      std::printf("  unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    std::printf("mel-serve> ");
    std::fflush(stdout);
  }
  service.Resume();
  for (Queued& q : pending) {
    PrintResponse(q.mention, q.future.get());
  }
  std::printf("\nbye (%llu links served, final epoch %llu)\n",
              static_cast<unsigned long long>(service.completed_ok()),
              static_cast<unsigned long long>(service.epoch()));
  return 0;
}
