// Query tool for trajectory archives: slice, filter and aggregate recorded
// runs without re-simulating anything.
//
//   ppsim_query --archive run.pptraj --info
//   ppsim_query --archive runs/ --where-engine collapsed --where-k 8 --stats
//   ppsim_query --archive run.pptraj --channels undecided,delta_max --every 10 --tsv -
//   ppsim_query --archive run.pptraj --hit-channel undecided --hit-level 5000
//   ppsim_query --archive runs/ --stats --json report.json
//   ppsim_query --archive runs/ --jsonl | jq .samples
//
// --archive takes a file, a directory (scanned non-recursively; non-archive
// files are skipped), or a comma-separated list. The --where-* predicates
// filter on header fields, so a directory of heterogeneous runs can be
// narrowed to one spec. --hit-channel/--hit-level compute the first sampled
// parallel time at which a channel reaches a level — the archive-replay
// equivalent of the hitting-time detectors — using the per-block min/max
// footers to skip chunks that cannot contain the crossing. Output mirrors
// the bench surface: TSV identical to ppsim_run --series, JSON via the same
// insertion-ordered writer as the sweep reports. --jsonl streams the same
// per-archive objects one JSON document per line to stdout (the summaries
// arrive as archives are read, and downstream tools get line-framed input).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ppsim/io/trajectory.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/json.hpp"

namespace {

using namespace ppsim;
using namespace ppsim::io;

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Expands --archive (file | directory | comma list) into archive paths.
/// Directory entries that are not trajectory archives are skipped silently;
/// explicitly named files must parse.
std::vector<std::string> expand_archives(const std::string& flag) {
  std::vector<std::string> paths;
  for (const std::string& entry : split_csv(flag)) {
    if (std::filesystem::is_directory(entry)) {
      std::vector<std::string> found;
      for (const auto& file : std::filesystem::directory_iterator(entry)) {
        if (!file.is_regular_file()) continue;
        std::ifstream in(file.path(), std::ios::binary);
        char magic[8] = {};
        in.read(magic, 8);
        if (in.gcount() == 8 &&
            std::string_view(magic, 8) == kTrajectoryMagic) {
          found.push_back(file.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      paths.insert(paths.end(), found.begin(), found.end());
    } else {
      paths.push_back(entry);
    }
  }
  PPSIM_CHECK(!paths.empty(), "--archive matched no files: " + flag);
  return paths;
}

void print_info(const std::string& path, const TrajectoryReader& reader) {
  const TrajectoryHeader& h = reader.header();
  std::cout << path << "\n"
            << "  engine=" << h.engine << " protocol=" << h.protocol
            << " n=" << h.population << " k=" << h.k
            << " states=" << h.num_states << " seed=" << h.seed << "\n"
            << "  stride=" << h.stride << " checkpoint_every=" << h.checkpoint_every
            << " budget=" << h.max_interactions << " spec=" << hex64(h.spec_hash)
            << " build=" << h.build_version << "\n"
            << "  channels:";
  for (const auto& name : h.channels) std::cout << ' ' << name;
  std::cout << "\n  blocks=" << reader.num_blocks()
            << " samples=" << reader.total_samples()
            << " checkpoints=" << reader.checkpoints().size();
  if (reader.finished()) {
    const TrajectoryEnd end = *reader.end();
    std::cout << " finished(stabilized=" << (end.stabilized ? 1 : 0)
              << " interactions=" << end.interactions;
    if (end.consensus.has_value()) std::cout << " consensus=" << *end.consensus;
    std::cout << ")";
  } else {
    std::cout << " interrupted";
  }
  if (reader.torn_tail()) {
    std::cout << " torn@" << reader.torn_offset();
  }
  std::cout << "\n";
}

JsonObject archive_json(const std::string& path, const TrajectoryReader& reader,
                        const std::string& hit_channel, double hit_level) {
  const TrajectoryHeader& h = reader.header();
  JsonObject obj;
  obj.field("path", path)
      .field("engine", h.engine)
      .field("protocol", h.protocol)
      .field("seed", static_cast<std::int64_t>(h.seed))
      .field("n", static_cast<std::int64_t>(h.population))
      .field("k", static_cast<std::int64_t>(h.k))
      .field("num_states", static_cast<std::int64_t>(h.num_states))
      .field("stride", static_cast<std::int64_t>(h.stride))
      .field("checkpoint_every", static_cast<std::int64_t>(h.checkpoint_every))
      .field("max_interactions", static_cast<std::int64_t>(h.max_interactions))
      .field("spec_hash", hex64(h.spec_hash))
      .field("build_version", h.build_version)
      .field("blocks", static_cast<std::int64_t>(reader.num_blocks()))
      .field("samples", static_cast<std::int64_t>(reader.total_samples()))
      .field("checkpoints", static_cast<std::int64_t>(reader.checkpoints().size()))
      .field("finished", reader.finished())
      .field("torn_tail", reader.torn_tail());
  if (reader.finished()) {
    const TrajectoryEnd end = *reader.end();
    obj.field("stabilized", end.stabilized)
        .field("final_interactions", static_cast<std::int64_t>(end.interactions))
        .field("final_parallel_time",
               static_cast<double>(end.interactions) /
                   static_cast<double>(h.population))
        .field("consensus",
               end.consensus.has_value() ? static_cast<std::int64_t>(*end.consensus)
                                         : std::int64_t{-1});
  }
  std::vector<JsonObject> channel_stats;
  for (const auto& name : h.channels) {
    JsonObject cs;
    cs.field("channel", name)
        .field("min", reader.channel_min(name))
        .field("max", reader.channel_max(name));
    channel_stats.push_back(std::move(cs));
  }
  obj.field("channel_stats", channel_stats);
  if (!hit_channel.empty()) {
    obj.field("hit_channel", hit_channel)
        .field("hit_level", hit_level)
        .field("hit_time", reader.first_time_at_least(hit_channel, hit_level));
  }
  return obj;
}

void print_stats(const std::string& path, const TrajectoryReader& reader,
                 const std::string& hit_channel, double hit_level) {
  const TrajectoryHeader& h = reader.header();
  std::cout << path << ": " << reader.total_samples() << " samples in "
            << reader.num_blocks() << " blocks";
  if (reader.finished()) {
    const TrajectoryEnd end = *reader.end();
    std::cout << ", " << (end.stabilized ? "stabilized" : "budget-capped")
              << " at t=" << static_cast<double>(end.interactions) /
                                 static_cast<double>(h.population);
  } else {
    std::cout << ", interrupted";
  }
  std::cout << "\n";
  for (const auto& name : h.channels) {
    std::cout << "  " << name << ": min=" << reader.channel_min(name)
              << " max=" << reader.channel_max(name) << "\n";
  }
  if (!hit_channel.empty()) {
    std::cout << "  first t with " << hit_channel << " >= " << hit_level << ": "
              << reader.first_time_at_least(hit_channel, hit_level) << "\n";
  }
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string archive_flag = cli.get_string("archive", "");
  const bool info = cli.get_bool("info", false);
  const bool stats = cli.get_bool("stats", false);
  const std::string channels_flag = cli.get_string("channels", "");
  const auto every = static_cast<std::size_t>(cli.get_int("every", 1));
  const std::string tsv = cli.get_string("tsv", "");
  const std::string hit_channel = cli.get_string("hit-channel", "");
  const double hit_level = cli.get_double("hit-level", 0.0);
  const std::int64_t where_k = cli.get_int("where-k", -1);
  const std::int64_t where_n = cli.get_int("where-n", -1);
  const std::string where_engine = cli.get_string("where-engine", "");
  const std::int64_t where_stabilized = cli.get_int("where-stabilized", -1);
  const std::string json_path = cli.get_string("json", "");
  const bool jsonl = cli.get_bool("jsonl", false);
  cli.validate_no_unknown_flags();

  PPSIM_CHECK(!archive_flag.empty(),
              "--archive FILE|DIR|a,b,... is required");
  PPSIM_CHECK(hit_channel.empty() == !cli.has("hit-level"),
              "--hit-channel and --hit-level go together");

  std::vector<std::string> selected;
  std::vector<TrajectoryReader> readers;
  for (const std::string& path : expand_archives(archive_flag)) {
    TrajectoryReader reader(path);
    const TrajectoryHeader& h = reader.header();
    if (where_k >= 0 && h.k != where_k) continue;
    if (where_n >= 0 && h.population != where_n) continue;
    if (!where_engine.empty() && h.engine != where_engine) continue;
    if (where_stabilized >= 0) {
      const bool stabilized = reader.finished() && reader.end()->stabilized;
      if (stabilized != (where_stabilized != 0)) continue;
    }
    selected.push_back(path);
    readers.push_back(std::move(reader));
  }
  if (!jsonl) std::cout << "archives: " << selected.size() << " selected\n";

  std::vector<JsonObject> archives_json;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (jsonl) {
      // Streaming mode: one self-contained JSON document per archive, the
      // same objects the --json report aggregates, emitted as each archive
      // is read. Suppresses the human-readable chatter so stdout is pure
      // line-framed JSON.
      JsonObject obj =
          archive_json(selected[i], readers[i], hit_channel, hit_level);
      std::cout << obj.str() << "\n";
      if (!json_path.empty()) archives_json.push_back(std::move(obj));
      continue;
    }
    if (info) print_info(selected[i], readers[i]);
    if (stats) print_stats(selected[i], readers[i], hit_channel, hit_level);
    if (!info && !stats && json_path.empty() && tsv.empty()) {
      // Bare invocation: one summary line per archive.
      const TrajectoryHeader& h = readers[i].header();
      std::cout << selected[i] << ": " << h.engine << " n=" << h.population
                << " k=" << h.k << " samples=" << readers[i].total_samples()
                << (readers[i].finished() ? "" : " (interrupted)") << "\n";
      if (!hit_channel.empty()) {
        std::cout << "  first t with " << hit_channel << " >= " << hit_level
                  << ": " << readers[i].first_time_at_least(hit_channel, hit_level)
                  << "\n";
      }
    }
    if (!json_path.empty()) {
      archives_json.push_back(
          archive_json(selected[i], readers[i], hit_channel, hit_level));
    }
  }

  if (!tsv.empty()) {
    PPSIM_CHECK(readers.size() == 1,
                "--tsv needs exactly one archive after filtering (got " +
                    std::to_string(readers.size()) + ")");
    const TimeSeries series = readers[0].to_series(split_csv(channels_flag), every);
    if (tsv == "-") {
      series.write_tsv(std::cout);
    } else {
      std::ofstream out(tsv);
      PPSIM_CHECK(out.good(), "cannot open TSV output: " + tsv);
      series.write_tsv(out);
      std::cout << "series written to " << tsv << "\n";
    }
  }

  if (!json_path.empty()) {
    JsonObject report;
    report.field("tool", "ppsim_query")
        .field("archives_selected", static_cast<std::int64_t>(selected.size()))
        .field("archives", archives_json);
    report.write_file(json_path);
    if (!jsonl) std::cout << "report written to " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
