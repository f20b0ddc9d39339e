// Named synthetic stand-ins for the paper's evaluation datasets.
//
// The paper (Table 1) evaluates on eight SNAP/KONECT networks (Wiki-Vote,
// Email-Enron, Epinions, Gowalla, NotreDame, LiveJournal, socfb-konect,
// Orkut) plus a DBLP collaboration network. Network access is unavailable
// here, so each dataset is replaced by a deterministic Holme–Kim power-law-
// cluster graph whose size and density are matched to the original (scaled
// down for the largest graphs so the benchmark suite stays laptop-sized).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace tsd {

/// Generation recipe for one named dataset at one scale.
struct DatasetSpec {
  std::string name;        // e.g. "wiki-vote"
  VertexId num_vertices;   // n at the chosen scale
  std::uint32_t edges_per_vertex;  // Holme–Kim attachment parameter
  double triad_probability;        // Holme–Kim clustering parameter
  /// Planted overlapping communities per vertex (see datasets.cc).
  double community_rate;
  std::uint64_t seed;
};

/// All eight dataset names, in the paper's Table 1 order.
const std::vector<std::string>& DatasetNames();

/// The three datasets the paper uses for its per-k and contagion plots
/// (Gowalla, LiveJournal, Orkut).
const std::vector<std::string>& PlotDatasetNames();

/// Returns the generation recipe for `name` at `scale` in
/// {"tiny", "small", "large"}. Throws CheckError for unknown names/scales.
DatasetSpec GetDatasetSpec(const std::string& name, const std::string& scale);

/// Generates the named dataset (deterministic for a given name and scale).
Graph MakeDataset(const std::string& name, const std::string& scale);

}  // namespace tsd
