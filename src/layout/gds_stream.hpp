// Hierarchical GDSII view for chip-scale scans (DESIGN.md §16).
//
// read_gds (layout/gdsii.hpp) parses the stream into a GdsLibrary with
// references unexpanded. This header turns that library into the form
// the scanner queries without ever expanding the placements:
//
//   * HierLayout — cells with their rectangles plus SREF/AREF
//     placements kept *unexpanded* (repetition as cols/rows/pitch).
//     Each cell carries its subtree bounding box and a content hash
//     that identifies the cell's flattened geometry up to translation —
//     the key the scan-result cache (hotspot/scan_cache.hpp) reuses
//     scored windows under.
//   * window-query descent — HierLayout::query resolves only the
//     placements whose subtree boxes intersect the query window
//     (AREF index ranges are computed in O(1) from the pitch), so
//     extracting a scan band touches O(geometry under the band) memory
//     regardless of chip size.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/rect.hpp"
#include "layout/gdsii.hpp"

namespace hsdl::layout {

/// One unexpanded placement: `cell` indexes HierLayout::cells().
/// Repetition is normalized (cols, rows >= 1; pitches >= 0, positive
/// when the corresponding count is > 1).
struct HierPlacement {
  std::uint32_t cell = 0;
  geom::Point at;
  std::int32_t cols = 1;
  std::int32_t rows = 1;
  geom::Coord col_pitch = 0;
  geom::Coord row_pitch = 0;

  std::int64_t instances() const {
    return static_cast<std::int64_t>(cols) * rows;
  }
  /// Origin of array element (i, j).
  geom::Point origin(std::int32_t i, std::int32_t j) const {
    return {at.x + i * col_pitch, at.y + j * row_pitch};
  }
};

struct HierCell {
  std::string name;
  std::vector<geom::Rect> shapes;    ///< local rectangles (cell frame)
  std::vector<std::int16_t> layers;  ///< parallel to shapes
  std::vector<HierPlacement> placements;
  /// Bounding box of the whole subtree (local shapes + every placement,
  /// repetition included) in this cell's frame. Empty for empty cells.
  geom::Rect bbox;
  /// Identifies the subtree's flattened geometry up to translation:
  /// equal hashes => congruent flattened content. Two cells that happen
  /// to contain identical geometry hash equal, which lets the scan
  /// cache share their windows.
  std::uint64_t content_hash = 0;
};

/// A GDSII hierarchy with references kept unexpanded. Immutable once
/// built (by hier_from_library); all query methods are const and
/// thread-safe.
class HierLayout {
 public:
  const std::vector<HierCell>& cells() const { return cells_; }
  const HierCell& cell(std::size_t i) const { return cells_[i]; }
  /// Index of the top cell (the unique cell no placement references).
  std::size_t top() const { return top_; }
  /// Subtree bbox of the top cell — the scannable chip extent.
  const geom::Rect& extent() const { return cells_[top_].bbox; }
  /// Content fingerprint of the whole layout (top cell's hash mixed
  /// with the library name) — used to fence scan journals.
  std::uint64_t fingerprint() const;

  /// Appends every shape on `layer` that overlaps `window` — clipped to
  /// the window, in top-cell coordinates — to `out`. Lazy descent: only
  /// placements whose subtree bbox intersects the window are expanded,
  /// and only the intersecting index range of each array.
  void query(const geom::Rect& window, std::int16_t layer,
             std::vector<geom::Rect>& out) const;

  /// Sum of instances() over all placements reachable from the top —
  /// the size a flat expansion would multiply geometry by.
  std::int64_t flat_instance_count() const;

  /// Layers present anywhere in the hierarchy, ascending.
  std::vector<std::int16_t> present_layers() const;

 private:
  friend HierLayout hier_from_library(const GdsLibrary&,
                                      const GdsReadOptions&);

  void query_cell(std::size_t cell_index, geom::Point offset,
                  const geom::Rect& window, std::int16_t layer,
                  std::vector<geom::Rect>& out, std::size_t depth) const;
  /// Resolves `raw_refs` (per-cell, by cell name) into placements,
  /// orients the DAG (cycle check), computes subtree bboxes and content
  /// hashes, picks the top cell. Throws CheckError on cycles, unknown
  /// or duplicate names, or a missing unique top.
  void finalize(const std::string& library_name,
                std::vector<std::vector<GdsRef>>&& raw_refs);

  std::vector<HierCell> cells_;
  std::size_t top_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Reads a GDSII stream into a HierLayout:
/// hier_from_library(read_gds(is, options), options). The transient
/// GdsLibrary keeps references unexpanded, so it is the same size order
/// as the HierLayout built from it.
HierLayout read_hier_gds(std::istream& is, const GdsReadOptions& options = {});
HierLayout read_hier_gds_file(const std::string& path,
                              const GdsReadOptions& options = {});

/// Builds the HierLayout of a library: boundaries decomposed into
/// rectangles (on options.layer_filter only, when set), references
/// resolved by name. Throws CheckError on unknown or duplicate names,
/// reference cycles, or a missing unique top cell with geometry.
HierLayout hier_from_library(const GdsLibrary& lib,
                             const GdsReadOptions& options = {});

}  // namespace hsdl::layout
