#include "graph/edge_list_io.h"

#include <cstdint>
#include <cstdlib>  // strtoull / strtod (was relied on transitively)
#include <fstream>

#include "common/check.h"

namespace tsd {
namespace {

const char* SkipSpace(const char* p) {
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  return p;
}

}  // namespace

Graph LoadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  TSD_CHECK_MSG(in.good(), "cannot open edge list: " << path);

  GraphBuilder builder;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Skip comments and blank lines.
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#' ||
        line[first] == '%') {
      continue;
    }
    const char* p = line.c_str() + first;
    char* end = nullptr;
    const unsigned long long u = std::strtoull(p, &end, 10);
    TSD_CHECK_MSG(end != p, "parse error at " << path << ":" << line_number);
    p = end;
    const unsigned long long v = std::strtoull(p, &end, 10);
    TSD_CHECK_MSG(end != p, "parse error at " << path << ":" << line_number);
    TSD_CHECK_MSG(u < kInvalidVertex && v < kInvalidVertex,
                  "vertex id overflow at " << path << ":" << line_number);
    // Anything after the two ids must be an optional numeric weight column
    // (loadable but ignored — the graph model is unweighted) followed by
    // whitespace. A malformed tail like "1 2x7" used to be silently
    // accepted as the edge (1, 2); reject it with the offending line.
    p = SkipSpace(end);
    if (*p != '\0') {
      std::strtod(p, &end);
      TSD_CHECK_MSG(end != p && *SkipSpace(end) == '\0',
                    "trailing garbage after edge at " << path << ":"
                                                      << line_number << ": '"
                                                      << line << "'");
    }
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.Build();
}

void SaveEdgeListText(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  TSD_CHECK_MSG(out.good(), "cannot open file for writing: " << path);
  out << "# Undirected graph: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " edges\n";
  for (const Edge& e : graph.edges()) {
    out << e.u << '\t' << e.v << '\n';
  }
  out.flush();
  TSD_CHECK_MSG(out.good(), "write failed: " << path);
}

}  // namespace tsd
