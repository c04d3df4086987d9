#ifndef ASSESS_ASSESS_WIRE_FORMAT_H_
#define ASSESS_ASSESS_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "assess/result_set.h"
#include "common/result.h"

namespace assess {

/// \brief Compact binary encoding of assess results and errors, the payload
/// format of the assessd network protocol (src/server/protocol.h) and of any
/// other transport that needs to ship an AssessResult between processes.
///
/// Layout principles (all multi-byte integers are LEB128 varints, doubles
/// are IEEE-754 bit patterns in fixed little-endian 8-byte form, strings are
/// varint length + raw bytes):
///
///   result   := magic 'A' | version 0x01 | plan(u8) | 7 x f64 timings
///             | str measure | str benchmark_measure | str comparison_measure
///             | varint n_sql | n_sql x str
///             | cube
///   cube     := varint n_levels
///             | n_levels x (str hierarchy | str level
///                           | varint dict_size | dict_size x str member)
///             | varint n_rows
///             | n_levels x (n_rows x varint dict_index)
///             | varint n_measures | n_measures x str name
///             | n_measures x (n_rows x f64)
///             | u8 has_labels | [n_rows x str]
///   status   := magic 'S' | version 0x01 | code(u8) | str message
///
/// Coordinate columns are re-dictionarized per level on serialization (only
/// the member names actually present travel, indexed by first appearance),
/// so the encoding is independent of the producing database's member-id
/// assignment. Deserialization rebuilds each axis as a fresh single-level
/// Hierarchy holding that dictionary: the reconstructed cube renders,
/// compares and CSV-exports identically (same coordinate names in the same
/// row order, bit-identical measures, same labels), which is the result
/// contract of Section 4.1 — roll-up structure above the result's own levels
/// does not travel, as a shipped result is a leaf for its consumer.
///
/// Every deserializer is total: arbitrary bytes (truncation, garbage,
/// hostile lengths) yield a non-OK Status, never a crash or an unbounded
/// allocation. A dictionary that repeats a member name is rejected too:
/// coordinates are range-checked against the dictionary's wire count, so
/// every name must intern to its own position.
///
/// The layout above is the one version 0x01 has always had. The codec
/// writes it in bulk — the output is sized once and each measure column is
/// one block copy on little-endian hosts — and decodes names as views into
/// the payload; the bytes are pinned by a golden test. Frames carrying
/// these payloads are checksummed with CRC32C (common/crc32c.h), which runs
/// on the SSE4.2 instruction under the ASSESS_SIMD ceiling's AVX2 tier.

/// \brief Serializes `result` into the wire format above.
std::string SerializeAssessResult(const AssessResult& result);

/// \brief Parses a serialized AssessResult; `data` must be exactly one
/// encoded result.
Result<AssessResult> DeserializeAssessResult(std::string_view data);

/// \brief Serializes a (typically non-OK) status as a typed code + message.
std::string SerializeStatus(const Status& status);

/// \brief Parses a serialized Status into `*out`. The return value reports
/// whether the bytes decoded at all (Result<Status> would be ambiguous —
/// Status is Result's own error arm).
Status DeserializeStatus(std::string_view data, Status* out);

}  // namespace assess

#endif  // ASSESS_ASSESS_WIRE_FORMAT_H_
