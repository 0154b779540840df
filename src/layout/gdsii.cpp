#include "layout/gdsii.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "common/check.hpp"
#include "common/io.hpp"

namespace hsdl::layout {
namespace {

// Record types (the supported subset).
enum : std::uint8_t {
  kHeader = 0x00,
  kBgnLib = 0x01,
  kLibName = 0x02,
  kUnits = 0x03,
  kEndLib = 0x04,
  kBgnStr = 0x05,
  kStrName = 0x06,
  kEndStr = 0x07,
  kBoundary = 0x08,
  kSref = 0x0A,
  kAref = 0x0B,
  kLayer = 0x0D,
  kDatatype = 0x0E,
  kXy = 0x10,
  kEndEl = 0x11,
  kSname = 0x12,
  kColRow = 0x13,
};

// Data types.
enum : std::uint8_t {
  kNoData = 0x00,
  kInt16 = 0x02,
  kInt32 = 0x03,
  kReal8 = 0x05,
  kAscii = 0x06,
};

// The writer assembles the whole stream in memory, so a library it
// cannot represent is rejected before any byte reaches the ostream.

void put_u16(std::string& buf, std::uint16_t v) {
  buf.push_back(static_cast<char>(v >> 8));
  buf.push_back(static_cast<char>(v & 0xFF));
}

void put_u32(std::string& buf, std::uint32_t v) {
  put_u16(buf, static_cast<std::uint16_t>(v >> 16));
  put_u16(buf, static_cast<std::uint16_t>(v & 0xFFFF));
}

void put_u64(std::string& buf, std::uint64_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v >> 32));
  put_u32(buf, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
}

void emit(std::string& out, std::uint8_t rec, std::uint8_t dtype,
          std::string_view payload) {
  // Length includes the 4-byte header; GDSII pads odd payloads.
  const std::size_t len = 4 + payload.size() + payload.size() % 2;
  HSDL_CHECK_MSG(len <= 65535,
                 "GDSII: record type " << static_cast<int>(rec) << " needs "
                                       << len
                                       << " bytes, more than the 16-bit "
                                          "record length field holds");
  put_u16(out, static_cast<std::uint16_t>(len));
  out.push_back(static_cast<char>(rec));
  out.push_back(static_cast<char>(dtype));
  out.append(payload);
  if (payload.size() % 2 == 1) out.push_back('\0');
}

void emit_i16(std::string& out, std::uint8_t rec, std::int16_t v) {
  std::string p;
  put_u16(p, static_cast<std::uint16_t>(v));
  emit(out, rec, kInt16, p);
}

bool fits_i32(geom::Coord c) {
  return c >= std::numeric_limits<std::int32_t>::min() &&
         c <= std::numeric_limits<std::int32_t>::max();
}

void put_point(std::string& xy, geom::Point p) {
  for (const geom::Coord c : {p.x, p.y}) {
    HSDL_CHECK_MSG(fits_i32(c), "GDSII: coordinate "
                                    << c << " outside the 32-bit XY range");
    put_u32(xy, static_cast<std::uint32_t>(static_cast<std::int32_t>(c)));
  }
}

/// GDSII timestamps: 6 int16 fields (year, month, day, hour, min, sec),
/// twice (modification + access). Fixed epoch keeps output deterministic.
void emit_timestamps(std::string& out, std::uint8_t rec) {
  std::string p;
  for (int rep = 0; rep < 2; ++rep) {
    const std::int16_t stamp[6] = {2017, 6, 18, 0, 0, 0};  // DAC'17
    for (std::int16_t v : stamp)
      put_u16(p, static_cast<std::uint16_t>(v));
  }
  emit(out, rec, kInt16, p);
}

/// Forward-only record cursor over a std::istream: the 4-byte length and
/// type header is checked against `max_record_bytes` before the payload
/// is read into one reused buffer, so reader memory is O(1) in the file
/// size. Payload fields decode through io::ByteReader. Every diagnostic
/// is an io::IoError carrying the absolute byte offset and the record
/// index.
class RecordReader {
 public:
  RecordReader(std::istream& is, std::size_t max_record_bytes)
      : is_(is), max_record_bytes_(max_record_bytes) {
    buf_.reserve(max_record_bytes_);
  }

  /// Frames the next record; false at clean end-of-stream.
  bool next() {
    const std::uint64_t start = offset_;
    unsigned char hdr[4];
    is_.read(reinterpret_cast<char*>(hdr), 4);
    const std::streamsize got = is_.gcount();
    if (got == 0) return false;
    if (got < 4) fail_at(start, "truncated record header");
    const std::size_t len = (static_cast<std::size_t>(hdr[0]) << 8) | hdr[1];
    type_ = hdr[2];
    if (len < 4) fail_at(start, "record length below header size");
    if (len > max_record_bytes_)
      fail_at(start, "record length " + std::to_string(len) +
                         " exceeds the " + std::to_string(max_record_bytes_) +
                         "-byte record bound");
    buf_.resize(len - 4);
    if (!buf_.empty()) {
      is_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
      if (static_cast<std::size_t>(is_.gcount()) < buf_.size())
        fail_at(start, "truncated record payload");
    }
    payload_start_ = start + 4;
    offset_ = start + len;
    payload_ = io::ByteReader(buf_, "GDSII");
    ++index_;
    return true;
  }

  std::uint8_t type() const { return type_; }

  // Big-endian fields of the current payload, in order.
  std::int16_t i16() {
    need(2);
    return payload_.i16_be();
  }
  std::int32_t i32() {
    need(4);
    return payload_.i32_be();
  }
  std::uint64_t u64() {
    need(8);
    return payload_.u64_be();
  }

  /// The whole payload as an ASCII name, less GDSII's NUL padding.
  std::string name() const {
    std::string_view s = buf_;
    while (!s.empty() && s.back() == '\0') s.remove_suffix(1);
    return std::string(s);
  }

  /// The whole payload as (x, y) int32 pairs.
  std::vector<geom::Point> points() {
    if (buf_.size() % 8 != 0) fail("odd XY payload");
    std::vector<geom::Point> out(buf_.size() / 8);
    for (geom::Point& p : out) {
      p.x = i32();
      p.y = i32();
    }
    return out;
  }

  /// Trailing bytes after ENDLIB must be NUL tape padding only.
  void expect_only_padding() {
    char c;
    while (is_.read(&c, 1), is_.gcount() == 1) {
      if (c != '\0') fail("non-padding trailing data after ENDLIB");
      ++offset_;
    }
  }

  /// Throws at the end of the current record.
  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(offset_, msg);
  }

 private:
  // A short payload fails here, at its absolute offset, rather than
  // inside ByteReader with an offset relative to the payload.
  void need(std::size_t n) const {
    if (payload_.remaining() < n)
      fail_at(payload_start_ + payload_.pos(), "record payload too short");
  }

  [[noreturn]] void fail_at(std::uint64_t at, const std::string& msg) const {
    throw io::IoError(msg + " (record #" + std::to_string(index_) + ")", at,
                      "GDSII");
  }

  std::istream& is_;
  std::size_t max_record_bytes_;
  std::string buf_;
  io::ByteReader payload_{{}, "GDSII"};
  std::uint8_t type_ = 0;
  std::uint64_t offset_ = 0;  // end of the current record
  std::uint64_t payload_start_ = 0;
  std::size_t index_ = 0;  // records framed so far
};

/// Resolves an AREF's COLROW + 3-point XY into the normalized GdsRef
/// repetition form (origin at the lowest instance, non-negative pitches).
void resolve_aref(GdsRef& ref, const std::vector<geom::Point>& xy,
                  const RecordReader& records) {
  if (xy.size() != 3) records.fail("AREF XY must hold exactly 3 points");
  const geom::Point origin = xy[0], col_ref = xy[1], row_ref = xy[2];
  if (col_ref.y != origin.y || row_ref.x != origin.x)
    records.fail("rotated or sheared AREF (unsupported subset)");
  const geom::Coord col_span = col_ref.x - origin.x;
  const geom::Coord row_span = row_ref.y - origin.y;
  if (col_span % ref.cols != 0 || row_span % ref.rows != 0)
    records.fail("AREF span not divisible by its COLROW counts");
  ref.at = origin;
  ref.col_pitch = col_span / ref.cols;
  ref.row_pitch = row_span / ref.rows;
  if ((ref.cols > 1 && ref.col_pitch == 0) ||
      (ref.rows > 1 && ref.row_pitch == 0))
    records.fail("zero-pitch AREF repetition");
  // Normalize negative pitches: move the origin to the low corner so
  // downstream lazy-expansion index math can assume positive steps.
  if (ref.col_pitch < 0) {
    ref.at.x += (ref.cols - 1) * ref.col_pitch;
    ref.col_pitch = -ref.col_pitch;
  }
  if (ref.row_pitch < 0) {
    ref.at.y += (ref.rows - 1) * ref.row_pitch;
    ref.row_pitch = -ref.row_pitch;
  }
}

}  // namespace

void GdsReadOptions::validate() const {
  HSDL_CHECK_MSG(max_record_bytes >= 8,
                 "GDSII options: max_record_bytes must cover at least a "
                 "header plus a minimal payload, got "
                     << max_record_bytes);
  HSDL_CHECK_MSG(max_record_bytes <= 65535,
                 "GDSII options: max_record_bytes cannot exceed the "
                 "16-bit record length field (65535), got "
                     << max_record_bytes);
  HSDL_CHECK_MSG(layer_filter < 32768,
                 "GDSII options: layer_filter " << layer_filter
                                                << " is outside the GDSII "
                                                   "layer range");
}

std::uint64_t to_gds_real(double value) {
  // Excess-64 base-16: bit 63 sign, bits 62-56 exponent (power of 16,
  // biased by 64), bits 55-0 mantissa with the value = mantissa * 16^(e-64),
  // mantissa normalized to [1/16, 1).
  if (value == 0.0) return 0;
  std::uint64_t sign = 0;
  if (value < 0) {
    sign = 1ULL << 63;
    value = -value;
  }
  int exponent = 64;
  while (value >= 1.0) {
    value /= 16.0;
    ++exponent;
  }
  while (value < 1.0 / 16.0) {
    value *= 16.0;
    --exponent;
  }
  HSDL_CHECK_MSG(exponent >= 0 && exponent < 128,
                 "value out of GDSII real range");
  const auto mantissa =
      static_cast<std::uint64_t>(std::ldexp(value, 56));  // value * 2^56
  return sign | (static_cast<std::uint64_t>(exponent) << 56) |
         (mantissa & ((1ULL << 56) - 1));
}

double from_gds_real(std::uint64_t bits) {
  if (bits == 0) return 0.0;
  const bool negative = (bits >> 63) != 0;
  const int exponent = static_cast<int>((bits >> 56) & 0x7F) - 64;
  const double mantissa =
      std::ldexp(static_cast<double>(bits & ((1ULL << 56) - 1)), -56);
  const double value = mantissa * std::pow(16.0, exponent);
  return negative ? -value : value;
}

std::vector<geom::Rect> GdsCell::rects_on_layer(std::int16_t layer) const {
  std::vector<geom::Rect> out;
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    if (layers[i] != layer) continue;
    for (const geom::Rect& r : boundaries[i].decompose()) out.push_back(r);
  }
  return out;
}

void write_gds(std::ostream& os, const GdsLibrary& lib) {
  std::string out;
  emit_i16(out, kHeader, 600);  // stream version 6
  emit_timestamps(out, kBgnLib);
  emit(out, kLibName, kAscii, lib.name);
  {
    std::string p;
    put_u64(p, to_gds_real(lib.user_unit));
    put_u64(p, to_gds_real(lib.db_unit_meters));
    emit(out, kUnits, kReal8, p);
  }
  for (const GdsCell& cell : lib.cells) {
    HSDL_CHECK(cell.boundaries.size() == cell.layers.size());
    emit_timestamps(out, kBgnStr);
    emit(out, kStrName, kAscii, cell.name);
    for (std::size_t i = 0; i < cell.boundaries.size(); ++i) {
      emit(out, kBoundary, kNoData, "");
      emit_i16(out, kLayer, cell.layers[i]);
      emit_i16(out, kDatatype, 0);
      std::string xy;
      const auto& ring = cell.boundaries[i].ring();
      HSDL_CHECK_MSG(!ring.empty(), "empty boundary");
      for (std::size_t v = 0; v <= ring.size(); ++v)
        put_point(xy, ring[v % ring.size()]);  // closed ring
      emit(out, kXy, kInt32, xy);
      emit(out, kEndEl, kNoData, "");
    }
    for (const GdsRef& ref : cell.refs) {
      HSDL_CHECK_MSG(ref.cols >= 1 && ref.rows >= 1,
                     "GDSII: reference to '"
                         << ref.cell << "' has non-positive repetition "
                         << ref.cols << "x" << ref.rows);
      std::string xy;
      put_point(xy, ref.at);
      if (ref.is_array()) {
        HSDL_CHECK_MSG(ref.cols <= 32767 && ref.rows <= 32767,
                       "GDSII: AREF repetition exceeds the 16-bit COLROW "
                       "range");
        HSDL_CHECK_MSG((ref.cols == 1 || ref.col_pitch > 0) &&
                           (ref.rows == 1 || ref.row_pitch > 0),
                       "GDSII: AREF of '" << ref.cell
                                          << "' needs positive pitches");
        // In-range pitches keep the corner arithmetic below from
        // overflowing; put_point then range-checks each corner.
        HSDL_CHECK_MSG(fits_i32(ref.col_pitch) && fits_i32(ref.row_pitch),
                       "GDSII: AREF of '" << ref.cell
                                          << "' has a pitch outside the "
                                             "32-bit XY range");
        emit(out, kAref, kNoData, "");
        emit(out, kSname, kAscii, ref.cell);
        std::string colrow;
        put_u16(colrow, static_cast<std::uint16_t>(ref.cols));
        put_u16(colrow, static_cast<std::uint16_t>(ref.rows));
        emit(out, kColRow, kInt16, colrow);
        // 3-point XY: origin, origin + cols*col_pitch along x,
        // origin + rows*row_pitch along y (axis-aligned subset).
        put_point(xy, {ref.at.x + ref.cols * ref.col_pitch, ref.at.y});
        put_point(xy, {ref.at.x, ref.at.y + ref.rows * ref.row_pitch});
      } else {
        emit(out, kSref, kNoData, "");
        emit(out, kSname, kAscii, ref.cell);
      }
      emit(out, kXy, kInt32, xy);
      emit(out, kEndEl, kNoData, "");
    }
    emit(out, kEndStr, kNoData, "");
  }
  emit(out, kEndLib, kNoData, "");
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  HSDL_CHECK_MSG(os.good(), "GDSII write failed");
}

namespace {

constexpr std::size_t kMaxFlattenDepth = 64;
/// Expanded-placement ceiling: adversarial files can nest AREFs so that
/// the instance count explodes combinatorially; flattening stops with a
/// diagnostic instead of consuming all memory.
constexpr std::int64_t kMaxFlattenInstances = 1 << 24;

struct Flattener {
  const GdsLibrary& lib;
  std::int16_t layer;
  /// Name -> cell index, built once (the old implementation re-ran a
  /// linear search on every recursive visit).
  std::unordered_map<std::string_view, std::size_t> index;
  std::int64_t instances = 0;
  std::vector<geom::Rect> out;

  explicit Flattener(const GdsLibrary& l, std::int16_t lay)
      : lib(l), layer(lay) {
    index.reserve(lib.cells.size());
    for (std::size_t i = 0; i < lib.cells.size(); ++i)
      index.emplace(lib.cells[i].name, i);
  }

  void visit(const std::string& name, geom::Point offset, std::size_t depth) {
    HSDL_CHECK_MSG(depth < kMaxFlattenDepth,
                   "GDSII: reference cycle or absurd hierarchy depth at "
                   "cell '" << name << "'");
    const auto it = index.find(name);
    HSDL_CHECK_MSG(it != index.end(), "GDSII: unknown cell '" << name << "'");
    const GdsCell& cell = lib.cells[it->second];
    for (const geom::Rect& r : cell.rects_on_layer(layer))
      out.push_back(r.shifted(offset));
    for (const GdsRef& ref : cell.refs) {
      HSDL_CHECK_MSG(ref.cols >= 1 && ref.rows >= 1,
                     "GDSII: non-positive AREF repetition in cell '"
                         << cell.name << "'");
      instances += ref.instances();
      HSDL_CHECK_MSG(instances <= kMaxFlattenInstances,
                     "GDSII: flattening cell '"
                         << name << "' expands past " << kMaxFlattenInstances
                         << " placements (adversarial repetition?)");
      for (std::int32_t j = 0; j < ref.rows; ++j)
        for (std::int32_t i = 0; i < ref.cols; ++i)
          visit(ref.cell, offset + ref.at +
                              geom::Point{i * ref.col_pitch,
                                          j * ref.row_pitch},
                depth + 1);
    }
  }
};

}  // namespace

GdsLibrary read_gds(std::istream& is, const GdsReadOptions& options) {
  options.validate();
  RecordReader records(is, options.max_record_bytes);
  GdsLibrary lib;
  bool saw_header = false, in_struct = false;
  // The open element (kBoundary, kSref, kAref or kNoElement) and what
  // its records have set so far; it is checked and stored at ENDEL.
  constexpr std::uint8_t kNoElement = 0xFF;
  std::uint8_t element = kNoElement;
  std::int16_t layer = 0;
  std::vector<geom::Point> xy;
  GdsRef ref;
  bool have_colrow = false;

  while (records.next()) {
    const std::uint8_t type = records.type();
    switch (type) {
      case kHeader:
        saw_header = true;
        break;
      case kLibName:
        lib.name = records.name();
        break;
      case kUnits:
        lib.user_unit = from_gds_real(records.u64());
        lib.db_unit_meters = from_gds_real(records.u64());
        break;
      case kBgnLib:
      case kDatatype:
        break;  // timestamps / datatype numbers carry no geometry
      case kBgnStr:
        if (in_struct) records.fail("nested BGNSTR");
        lib.cells.emplace_back();
        in_struct = true;
        break;
      case kStrName:
        if (!in_struct) records.fail("STRNAME outside structure");
        lib.cells.back().name = records.name();
        break;
      case kEndStr:
        if (!in_struct || element != kNoElement)
          records.fail("unbalanced ENDSTR");
        in_struct = false;
        break;
      case kBoundary:
      case kSref:
      case kAref:
        if (!in_struct || element != kNoElement)
          records.fail(type == kBoundary ? "BOUNDARY outside structure"
                       : type == kAref   ? "AREF outside structure"
                                         : "SREF outside structure");
        element = type;
        layer = 0;
        xy.clear();
        ref = GdsRef{};
        have_colrow = false;
        break;
      case kSname:
        if (element == kSref || element == kAref) ref.cell = records.name();
        break;
      case kColRow:
        if (element == kAref) {
          ref.cols = records.i16();
          ref.rows = records.i16();
          if (ref.cols < 1 || ref.rows < 1)
            records.fail("non-positive COLROW repetition");
          have_colrow = true;
        }
        break;
      case kLayer:
        if (element != kNoElement) layer = records.i16();
        break;
      case kXy:
        if (element != kNoElement) xy = records.points();
        break;
      case kEndEl:
        if (element == kBoundary) {
          // GDSII repeats the first vertex at the end.
          if (xy.size() >= 2 && xy.front() == xy.back()) xy.pop_back();
          if (!geom::is_rectilinear_ring(xy))
            records.fail("non-rectilinear boundary (unsupported subset)");
          if (options.layer_filter < 0 || layer == options.layer_filter) {
            lib.cells.back().boundaries.emplace_back(std::move(xy));
            lib.cells.back().layers.push_back(layer);
          }
        } else if (element != kNoElement) {
          if (ref.cell.empty()) records.fail("SREF without SNAME");
          if (element == kAref) {
            if (!have_colrow) records.fail("AREF without COLROW");
            resolve_aref(ref, xy, records);
          } else {
            if (xy.empty()) records.fail("SREF without XY");
            ref.at = xy.front();
          }
          lib.cells.back().refs.push_back(std::move(ref));
        }
        element = kNoElement;
        break;
      case kEndLib:
        if (!saw_header) records.fail("ENDLIB before HEADER");
        if (in_struct) records.fail("ENDLIB inside structure");
        records.expect_only_padding();
        return lib;
      default:
        if (!options.skip_unknown)
          records.fail("unknown record type " + std::to_string(type) +
                       " with skip_unknown disabled");
        break;  // skip unsupported records (TEXT, properties, ...)
    }
  }
  records.fail("stream ended without ENDLIB");
}

GdsLibrary read_gds(std::istream& is) { return read_gds(is, {}); }

void write_gds_file(const std::string& path, const GdsLibrary& lib) {
  std::ofstream os(path, std::ios::binary);
  HSDL_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  write_gds(os, lib);
}

GdsLibrary read_gds_file(const std::string& path,
                         const GdsReadOptions& options) {
  std::ifstream is(path, std::ios::binary);
  HSDL_CHECK_MSG(is.good(), "cannot open '" << path << "' for reading");
  return read_gds(is, options);
}

GdsLibrary read_gds_file(const std::string& path) {
  return read_gds_file(path, {});
}

std::vector<geom::Rect> flatten_cell(const GdsLibrary& lib,
                                     const std::string& cell_name,
                                     std::int16_t layer) {
  Flattener flattener(lib, layer);
  flattener.visit(cell_name, {0, 0}, 0);
  return std::move(flattener.out);
}

}  // namespace hsdl::layout
