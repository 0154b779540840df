// GDSII stream-format subset reader/writer.
//
// GDSII is the interchange format the original benchmarks ship in. This
// implements the subset needed for single-layer mask data with cell
// hierarchy:
//   HEADER, BGNLIB, LIBNAME, UNITS, BGNSTR, STRNAME,
//   BOUNDARY / LAYER / DATATYPE / XY / ENDEL,
//   SREF / AREF / SNAME / COLROW, ENDSTR, ENDLIB
// Records are big-endian; UNITS uses GDSII's excess-64 base-16 8-byte
// reals (converters exposed for testing). Boundaries are rectilinear
// polygons; on read they are decomposed into rectangles via the geometry
// kernel. AREF arrays must be axis-aligned (no rotation/magnification —
// outside the supported subset).
//
// read_gds is the only GDSII parser. It frames records forward-only off
// the std::istream through one bounded, reused record buffer and builds
// the editable `GdsLibrary` view, references unexpanded. Chip-scale
// scans convert that library into a queryable hierarchy with
// hier_from_library / read_hier_gds (layout/gds_stream.hpp, DESIGN.md
// §16).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/polygon.hpp"

namespace hsdl::layout {

/// Read-time policy for read_gds (and so for read_hier_gds, which reads
/// through it). Replaces the implicit behaviors of the original reader
/// (silent unknown-record skipping, unbounded record sizes, all layers
/// kept) with explicit, validated options — the same
/// construct-then-validate idiom as ScanConfig/EngineConfig.
struct GdsReadOptions {
  /// Upper bound on a record's declared length (header included). The
  /// GDSII length field is 16-bit so 65535 admits every legal file;
  /// lowering it rejects adversarially oversized records early, before
  /// any allocation sized by the untrusted field.
  std::size_t max_record_bytes = 65535;
  /// Keep only boundaries on this layer (negative keeps every layer).
  std::int32_t layer_filter = -1;
  /// Skip record types outside the supported subset (TEXT, PATH,
  /// properties, ...). When false, the first unknown record is a
  /// positioned error — use for strict interchange validation.
  bool skip_unknown = true;

  /// Rejects nonsense configurations (record bound smaller than a
  /// record header / larger than the 16-bit field can express, layer
  /// filter outside the GDSII layer range) with a positioned error.
  /// read_gds and hier_from_library call this on entry.
  void validate() const;
};

/// Structure reference: a translated placement of another cell. A plain
/// SREF is the cols == rows == 1 case; an AREF places a cols x rows
/// array stepped by col_pitch in x and row_pitch in y (axis-aligned
/// subset; pitches are normalized non-negative on read).
struct GdsRef {
  std::string cell;
  geom::Point at;
  std::int32_t cols = 1;
  std::int32_t rows = 1;
  geom::Coord col_pitch = 0;  ///< nm step between array columns (x)
  geom::Coord row_pitch = 0;  ///< nm step between array rows (y)

  bool is_array() const { return cols > 1 || rows > 1; }
  /// Total placements this reference expands to.
  std::int64_t instances() const {
    return static_cast<std::int64_t>(cols) * rows;
  }
};

struct GdsCell {
  std::string name;
  std::vector<geom::Polygon> boundaries;
  std::vector<std::int16_t> layers;  ///< parallel to boundaries
  std::vector<GdsRef> refs;

  /// All boundaries on `layer`, decomposed into rectangles (refs are not
  /// resolved — see flatten_cell).
  std::vector<geom::Rect> rects_on_layer(std::int16_t layer) const;
};

struct GdsLibrary {
  std::string name = "HSDL";
  /// Database unit in meters (1e-9 = 1 nm, this library's convention).
  double db_unit_meters = 1e-9;
  /// User unit in database units (GDSII UNITS first field).
  double user_unit = 1e-3;
  std::vector<GdsCell> cells;
};

/// Serializes a library. Boundaries must be rectilinear polygons; refs
/// with is_array() emit AREF records (SNAME + COLROW + 3-point XY). A
/// coordinate outside int32 or a record longer than the 16-bit length
/// field (a boundary of more than 8190 vertices, a name near 64 KiB) is
/// a CheckError, thrown before any byte is written to `os`.
void write_gds(std::ostream& os, const GdsLibrary& lib);
void write_gds_file(const std::string& path, const GdsLibrary& lib);

/// Parses a GDSII stream, references unexpanded. Malformed input throws
/// io::IoError with the byte offset and record index; invalid options
/// throw CheckError.
GdsLibrary read_gds(std::istream& is, const GdsReadOptions& options);
GdsLibrary read_gds_file(const std::string& path,
                         const GdsReadOptions& options);
/// Default-options overloads (unknown records skipped, every layer
/// loaded).
GdsLibrary read_gds(std::istream& is);
GdsLibrary read_gds_file(const std::string& path);

/// Recursively resolves structure references of `cell_name` (repetition
/// included), returning every boundary rectangle on `layer` in the
/// flattened (top-cell) coordinate frame. Cell names resolve through a
/// name index built once per call; unknown cells, reference cycles,
/// absurd hierarchy depth and adversarial instance blow-ups
/// (> ~16.7M placements) are positioned errors, never unbounded
/// recursion.
std::vector<geom::Rect> flatten_cell(const GdsLibrary& lib,
                                     const std::string& cell_name,
                                     std::int16_t layer);

// -- GDSII 8-byte real conversion (exposed for tests) --
std::uint64_t to_gds_real(double value);
double from_gds_real(std::uint64_t bits);

}  // namespace hsdl::layout
