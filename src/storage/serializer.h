// On-disk tuple format, modelled on the paper's PostgreSQL
// implementation (Sec. VIII):
//
//  * ongoing time points are stored as two fixed time points (a, b) —
//    the doubling of the valid-time size the paper reports in Table V;
//  * a tuple's reference time RT is a variable-length array of fixed
//    time intervals (PostgreSQL varlena array), so the minimal amount of
//    space is allocated for the typical one-interval case;
//  * strings are varlena: 4-byte length header plus payload.
//
// The Table V per-tuple storage accounting (stats.h) sizes tuples in
// this format; nothing is written to or read back from disk.
#pragma once

#include <cstdint>
#include <vector>

#include "relation/relation.h"

namespace ongoingdb {

/// Serializes a tuple (attribute values + RT array) to bytes.
std::vector<uint8_t> SerializeTuple(const Tuple& tuple);

/// The serialized size of a tuple in bytes without materializing the
/// buffer.
size_t SerializedTupleSize(const Tuple& tuple);

/// The serialized size of just the RT attribute (varlena array header
/// plus one fixed interval per entry) — the paper's "RT size" column of
/// Table V.
size_t SerializedRtSize(const IntervalSet& rt);

}  // namespace ongoingdb
