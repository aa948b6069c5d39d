// The four flow-table templates of the paper's Fig. 4 and their fallback
// chain: direct code → compound hash → LPM → linked list.
#pragma once

#include <cstdint>

namespace esw::core {

enum class TableTemplate : uint8_t {
  kDirectCode,    // machine code assembled on-the-fly; any match; few entries
  kCompoundHash,  // exact match under a global mask (cls::CuckooTable)
  kCuckooHash,    // retired: never produced; kept so the enumerator values
                  // (and repro artifacts that store them) stay stable
  kLpm,           // DIR-24-8 longest prefix match
  kRange,         // flattened interval search (the paper's proposed "range
                  // search for port matches" extension template)
  kLinkedList,    // tuple space search; universal fallback
};

inline const char* to_string(TableTemplate t) {
  switch (t) {
    case TableTemplate::kDirectCode:
      return "direct-code";
    case TableTemplate::kCompoundHash:
      return "compound-hash";
    case TableTemplate::kCuckooHash:
      return "cuckoo-hash";
    case TableTemplate::kLpm:
      return "lpm";
    case TableTemplate::kRange:
      return "range";
    case TableTemplate::kLinkedList:
      return "linked-list";
  }
  return "?";
}

/// Fig. 4's fallback order, extended with the range template between LPM and
/// the linked list.
inline TableTemplate fallback_of(TableTemplate t) {
  switch (t) {
    case TableTemplate::kDirectCode:
      return TableTemplate::kCompoundHash;
    case TableTemplate::kCompoundHash:
      return TableTemplate::kLpm;
    case TableTemplate::kLpm:
      return TableTemplate::kRange;
    default:
      return TableTemplate::kLinkedList;
  }
}

}  // namespace esw::core
