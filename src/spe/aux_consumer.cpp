#include "spe/aux_consumer.hpp"

#include <cstring>
#include <vector>

namespace nmo::spe {

AuxConsumer::AuxConsumer(BatchSink sink) {
  DecodePool::BatchSink pool_sink;
  if (sink) {
    pool_sink = [s = std::move(sink)](std::span<const Record> records, CoreId core,
                                      std::uint32_t) { s(records, core); };
  }
  owned_pool_ = std::make_unique<DecodePool>(1, std::move(pool_sink));
  pool_ = owned_pool_.get();
}

std::uint64_t AuxConsumer::drain(kern::PerfEvent& ev) {
  std::vector<RawChunk> chunks;
  const std::uint64_t bytes = drain_raw(ev, chunks);
  decode_chunks(chunks);
  return bytes;
}

std::uint64_t AuxConsumer::drain_raw(kern::PerfEvent& ev, std::vector<RawChunk>& out) {
  std::uint64_t bytes = 0;
  while (auto rec = ev.read_record()) {
    switch (rec->header.type) {
      case kern::RecordType::kAux: {
        kern::AuxRecord aux{};
        if (rec->payload.size() < sizeof(aux)) break;
        std::memcpy(&aux, rec->payload.data(), sizeof(aux));
        ++counts_.aux_records;
        if (aux.flags & kern::kAuxFlagCollision) ++counts_.collision_flags;
        if (aux.flags & kern::kAuxFlagTruncated) ++counts_.truncated_flags;

        RawChunk chunk;
        chunk.core = ev.core();
        chunk.bytes.resize(aux.aux_size);
        ev.read_aux(aux.aux_offset, chunk.bytes);
        // Trailing partial records are dropped here; the aux space is
        // recycled either way.
        chunk.bytes.resize(chunk.bytes.size() / kRecordSize * kRecordSize);
        if (!chunk.bytes.empty()) out.push_back(std::move(chunk));
        ev.consume_aux(aux.aux_offset + aux.aux_size);
        bytes += aux.aux_size;
        break;
      }
      case kern::RecordType::kThrottle:
        ++counts_.throttle_records;
        break;
      case kern::RecordType::kUnthrottle:
        break;
      case kern::RecordType::kLost: {
        kern::LostRecord lost{};
        if (rec->payload.size() >= sizeof(lost)) {
          std::memcpy(&lost, rec->payload.data(), sizeof(lost));
          counts_.lost_records += lost.lost;
        } else {
          ++counts_.lost_records;
        }
        break;
      }
      default:
        break;
    }
  }
  return bytes;
}

void AuxConsumer::decode_chunks(std::span<const RawChunk> chunks) {
  // The aux space was already recycled when the bytes were copied out.
  for (const RawChunk& chunk : chunks) pool_->submit(chunk.bytes, chunk.core);
  sync();
}

void AuxConsumer::sync() {
  pool_->sync();
  const auto decoded = pool_->counts();
  const bool advanced = decoded.records_ok > counts_.records_ok;
  counts_.records_ok = decoded.records_ok;
  counts_.records_skipped = decoded.records_skipped;
  if (progress_ && advanced) progress_(counts_.records_ok);
}

void AuxConsumer::reset_counts() {
  counts_ = Counts{};
  pool_->sync();
  pool_->reset_counts();
}

}  // namespace nmo::spe
