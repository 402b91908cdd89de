/// \file blueprint_io.hpp
/// Graph checkpointing: persist a rank's built `partition_blueprint` so a
/// later run can reconstruct the distributed graph without repeating the
/// sort/partition/relabel pipeline.  HavoqGT (this paper's system) does
/// the same: graphs are ingested once and memory-mapped thereafter.
///
/// Format: a versioned header followed by length-prefixed sections, all
/// little-endian, one file per rank (`<base>.rankN.sfg`).
#pragma once

#include <string>

#include "graph/builder.hpp"

namespace sfg::io {

/// Save one rank's blueprint to `path`.
void save_blueprint(const std::string& path,
                    const graph::partition_blueprint& bp);

/// Load a blueprint saved by save_blueprint.  Throws on a bad magic,
/// version mismatch, truncation, or a ghost list holding the invalid
/// locator, a duplicate, or a vertex mastered on this rank or on no rank.
graph::partition_blueprint load_blueprint(const std::string& path);

/// Per-rank checkpoint path convention.
std::string blueprint_path(const std::string& base, int rank);

/// Collective: every rank saves its blueprint under the convention.
void save_blueprints(runtime::comm& c, const std::string& base,
                     const graph::partition_blueprint& bp);

/// Collective: every rank loads its blueprint.  The world size must
/// equal the size at save time (checked).
graph::partition_blueprint load_blueprints(runtime::comm& c,
                                           const std::string& base);

}  // namespace sfg::io
