// CRC32C (Castagnoli) checksums and the framed-record helpers shared by
// every durable format: BDB segment records, WAL journal frames and
// checkpoint images.  One implementation so a record written by any
// layer can be verified by any other, and so the corruption fuzz oracle
// has a single definition of "intact".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace retro {

/// CRC-32C (polynomial 0x1EDC6A41, reflected 0x82F63B78) over `data`.
/// `seed` chains incremental computations: crc32c(a+b) ==
/// crc32c(b, crc32c(a)).  Check value: crc32c("123456789") == 0xE3069283.
uint32_t crc32c(std::string_view data, uint32_t seed = 0);

/// Outcome of reading one checksummed frame from a byte stream.
enum class FrameStatus : uint8_t {
  kOk = 0,
  kTruncated,    ///< stream ends inside the header or payload (torn write)
  kBadChecksum,  ///< payload bytes do not match the stored CRC (bit rot)
  kBadLength,    ///< length field exceeds the remaining stream
};

struct FrameView {
  FrameStatus status = FrameStatus::kTruncated;
  std::string_view payload;  ///< valid only when status == kOk
  size_t frameBytes = 0;     ///< total bytes consumed (header + payload)
  bool ok() const { return status == FrameStatus::kOk; }
};

/// Append one frame to `out`: [u32 payload length][u32 CRC32C][payload],
/// little-endian header.  Returns the encoded frame size in bytes.
size_t appendFrame(std::string& out, std::string_view payload);

/// Parse the frame starting at `data[offset]`.  On kBadChecksum the
/// frame is still fully consumed (frameBytes is set) so a scan can skip
/// past a rotted frame whose length header survived; on kTruncated /
/// kBadLength the scan must stop — the tail is torn.
FrameView readFrame(std::string_view data, size_t offset);

/// Fixed per-frame header overhead (length + CRC).
inline constexpr size_t kFrameHeaderBytes = 8;

}  // namespace retro
