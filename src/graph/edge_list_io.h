// Edge-list file formats.
//
// Text format is SNAP-compatible: one "u v" pair per line, '#' comment lines
// ignored, arbitrary whitespace. For fast loading, save the graph into a
// snapshot instead (Graph::AppendToSnapshot, common/snapshot.h).
#pragma once

#include <string>

#include "graph/graph.h"

namespace tsd {

/// Loads a SNAP-style text edge list. Throws CheckError on parse errors or
/// unreadable files — including trailing garbage after the ids ("1 2x7"),
/// reported with the offending line number. Vertex ids must be non-negative
/// integers; they are used verbatim, so sparse id spaces produce isolated
/// vertices. An optional numeric third column (edge weight) is accepted and
/// ignored, so weighted edge lists stay loadable.
///
/// The file is read in 64 KiB blocks. Lines of the form
/// "digits [ \t]+ digits [ \t\r]*" take a fast path; every other line goes
/// to the general strtoull/strtod parser. The fast path takes only lines
/// the general parser reads as the same edge, so which lines are accepted,
/// and the error text and line number of a rejected one, do not depend on
/// it. Input already in (u, v) order with u < v, as SaveEdgeListText writes
/// it, skips the sort in GraphBuilder::Build.
Graph LoadEdgeListText(const std::string& path);

/// Writes "u v" lines with a comment header.
void SaveEdgeListText(const Graph& graph, const std::string& path);

}  // namespace tsd
