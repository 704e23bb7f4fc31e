#include "ckpt/chunk.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.hpp"

namespace crac::ckpt {

namespace {

// Post-parse codec fixup shared by both read_chunk_frame overloads: v2
// frames synthesize the codec (verbatim chunks are kStore, everything else
// is the image codec); v3 frames carry it and unknown ids are rejected by
// name before any decode can misinterpret the stored bytes.
Status resolve_frame_codec(ChunkFrame& frame, ChunkFraming framing,
                           Codec implied_codec) {
  if (framing == ChunkFraming::kV2) {
    frame.codec = static_cast<std::uint32_t>(
        frame.stored_size == frame.raw_size ? Codec::kStore : implied_codec);
    return OkStatus();
  }
  if (!codec_known(frame.codec)) {
    return Corrupt("unknown chunk codec id " + std::to_string(frame.codec));
  }
  return OkStatus();
}

}  // namespace

ChunkFrame encode_chunk(const std::vector<std::byte>& raw, Codec codec,
                        std::vector<std::byte>& packed) {
  const std::size_t n = raw.size();
  ChunkFrame frame;
  frame.raw_size = n;
  frame.crc = crc32(raw.data(), n);
  if (codec != Codec::kStore) {
    packed = compress(raw, codec);
    if (packed.size() < n) {
      frame.stored_size = packed.size();
      frame.codec = static_cast<std::uint32_t>(codec);
      return frame;
    }
  }
  frame.stored_size = n;
  frame.codec = static_cast<std::uint32_t>(Codec::kStore);
  return frame;
}

Status write_chunk(Sink& sink, const ChunkFrame& frame, const std::byte* stored,
                   ChunkFraming framing) {
  std::byte header[kChunkFrameHeaderBytesV3];
  std::memcpy(header, &frame.raw_size, 8);
  std::memcpy(header + 8, &frame.stored_size, 8);
  std::size_t at = 16;
  if (framing == ChunkFraming::kV3) {
    std::memcpy(header + at, &frame.codec, 4);
    at += 4;
  }
  std::memcpy(header + at, &frame.crc, 4);
  CRAC_RETURN_IF_ERROR(sink.write(header, at + 4));
  return sink.write(stored, static_cast<std::size_t>(frame.stored_size));
}

Status write_chunk_terminator(Sink& sink, ChunkFraming framing) {
  const std::byte zeros[kChunkFrameHeaderBytesV3] = {};
  return sink.write(zeros, frame_header_bytes(framing));
}

Status read_chunk_frame(ByteReader& reader, ChunkFrame& frame,
                        ChunkFraming framing, Codec implied_codec) {
  CRAC_RETURN_IF_ERROR(reader.get_u64(frame.raw_size));
  CRAC_RETURN_IF_ERROR(reader.get_u64(frame.stored_size));
  if (framing == ChunkFraming::kV3) {
    CRAC_RETURN_IF_ERROR(reader.get_u32(frame.codec));
  }
  CRAC_RETURN_IF_ERROR(reader.get_u32(frame.crc));
  return resolve_frame_codec(frame, framing, implied_codec);
}

Status read_chunk_frame(Source& source, ChunkFrame& frame,
                        ChunkFraming framing, Codec implied_codec) {
  std::byte header[kChunkFrameHeaderBytesV3];
  CRAC_RETURN_IF_ERROR(source.read(header, frame_header_bytes(framing)));
  std::memcpy(&frame.raw_size, header, 8);
  std::memcpy(&frame.stored_size, header + 8, 8);
  std::size_t at = 16;
  if (framing == ChunkFraming::kV3) {
    std::memcpy(&frame.codec, header + at, 4);
    at += 4;
  }
  std::memcpy(&frame.crc, header + at, 4);
  return resolve_frame_codec(frame, framing, implied_codec);
}

ChunkPipeline::ChunkPipeline(Sink* sink, Codec codec, std::size_t chunk_size,
                             ThreadPool* pool, ChunkFraming framing)
    : sink_(sink),
      codec_(codec),
      chunk_size_(chunk_size > 0 ? chunk_size : kDefaultChunkSize),
      // A CRC-only chunk runs at memory speed, so a worker would overlap
      // little of it and cost a copy of every chunk.
      pool_(codec == Codec::kStore ? nullptr : pool),
      framing_(framing),
      max_in_flight_(pool_ != nullptr ? 2 * pool_->size() + 1 : 1) {}

ChunkPipeline::~ChunkPipeline() {
  // Abandoned pipeline (error unwind): block until workers are done with
  // our chunks so their futures never outlive this object.
  for (auto& f : in_flight_) {
    if (f.valid()) f.wait();
  }
}

Status ChunkPipeline::append_with(std::uint64_t size, const Fill& fill) {
  std::uint64_t done = 0;
  while (done < size) {
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(size - done, chunk_size_ - filled_));
    // The buffer grows in place (its capacity is reserved once) only as
    // far as payload reaches, so a short section never touches a chunk.
    if (chunk_.size() < filled_ + take) {
      chunk_.reserve(chunk_size_);
      chunk_.resize(filled_ + take);
    }
    CRAC_RETURN_IF_ERROR(fill(chunk_.data() + filled_, take, done));
    filled_ += take;
    done += take;
    raw_bytes_ += take;
    if (filled_ == chunk_size_) CRAC_RETURN_IF_ERROR(flush_chunk());
  }
  return OkStatus();
}

Status ChunkPipeline::append(const void* data, std::size_t size) {
  const auto* src = static_cast<const std::byte*>(data);
  return append_with(size, [src](std::byte* dst, std::size_t len,
                                 std::uint64_t offset) {
    std::memcpy(dst, src + offset, len);
    return OkStatus();
  });
}

Status ChunkPipeline::end_section() {
  if (filled_ > 0) CRAC_RETURN_IF_ERROR(flush_chunk());
  while (!in_flight_.empty()) CRAC_RETURN_IF_ERROR(retire_oldest());
  return write_chunk_terminator(*sink_, framing_);
}

Status ChunkPipeline::flush_chunk() {
  const std::size_t n = filled_;
  filled_ = 0;
  if (pool_ != nullptr) {
    while (in_flight_.size() >= max_in_flight_) {
      CRAC_RETURN_IF_ERROR(retire_oldest());
    }
    // The worker gets its own copy of the chunk, so the buffer refills at
    // once; the copy lands in memory the allocator recycles from chunks
    // already encoded. Completed frames retire strictly in submission
    // order, so the image layout is deterministic regardless of scheduling.
    auto task = [raw = std::vector<std::byte>(chunk_.begin(),
                                              chunk_.begin() + n),
                 codec = codec_]() mutable {
      EncodedChunk out;
      out.frame = encode_chunk(raw, codec, out.stored);
      if (out.frame.stored_size == out.frame.raw_size) {
        out.stored = std::move(raw);
      }
      return out;
    };
    in_flight_.push_back(pool_->submit_task(std::move(task)));
    return OkStatus();
  }
  // Inline: the chunk is the whole buffer (a short tail shrinks it; its
  // capacity stays), encoded and written in place.
  chunk_.resize(n);
  const ChunkFrame frame = encode_chunk(chunk_, codec_, packed_);
  const bool verbatim = frame.stored_size == frame.raw_size;
  return write_chunk(*sink_, frame, verbatim ? chunk_.data() : packed_.data(),
                     framing_);
}

Status ChunkPipeline::retire_oldest() {
  EncodedChunk chunk = in_flight_.front().get();
  in_flight_.pop_front();
  return write_chunk(*sink_, chunk.frame, chunk.stored.data(), framing_);
}

DecodedChunk decode_chunk(const ChunkFrame& frame,
                          std::vector<std::byte> stored,
                          std::vector<std::byte> scratch) {
  DecodedChunk out;
  if (frame.stored_size == frame.raw_size) {
    // Stored verbatim — the buffer already is the raw chunk.
    out.raw = std::move(stored);
    out.spare = std::move(scratch);
  } else {
    out.status = decompress_into(stored.data(), stored.size(),
                                 static_cast<Codec>(frame.codec),
                                 static_cast<std::size_t>(frame.raw_size),
                                 scratch);
    if (!out.status.ok()) return out;
    out.raw = std::move(scratch);
    out.spare = std::move(stored);
  }
  const std::uint32_t actual = crc32(out.raw.data(), out.raw.size());
  if (actual != frame.crc) {
    out.status = Corrupt("chunk CRC mismatch");
    out.raw.clear();
  }
  return out;
}

ChunkUnpipeline::ChunkUnpipeline(Source* source, Codec codec,
                                 std::size_t chunk_size, ThreadPool* pool,
                                 ChunkFraming framing)
    : source_(source),
      codec_(codec),
      chunk_size_(chunk_size > 0 ? chunk_size : kDefaultChunkSize),
      // Stored chunks need only a CRC pass, which the consumer does inline
      // on its one recycled buffer; the pool decompresses.
      pool_(codec == Codec::kStore ? nullptr : pool),
      framing_(framing),
      max_in_flight_(pool_ != nullptr ? 2 * pool_->size() + 1 : 1) {}

ChunkUnpipeline::~ChunkUnpipeline() {
  // Abandoned unpipeline (error unwind or partial section read): block until
  // workers are done with our chunks so their futures never outlive this
  // object.
  for (auto& [future, charge] : in_flight_) {
    if (future.valid()) future.wait();
  }
}

std::vector<std::byte> ChunkUnpipeline::take_buffer() {
  if (!free_buffers_.empty()) {
    std::vector<std::byte> buf = std::move(free_buffers_.back());
    free_buffers_.pop_back();
    buf.clear();
    return buf;
  }
  // Pool miss: one fresh buffer, sized for any chunk this image may carry
  // so later resizes within the frame gates never reallocate.
  ++buffer_allocs_;
  std::vector<std::byte> buf;
  buf.reserve(chunk_size_);
  return buf;
}

void ChunkUnpipeline::recycle_buffer(std::vector<std::byte>&& buf) {
  if (buf.capacity() == 0) return;
  // Bound the pool: in-flight chunks hold at most two buffers each, plus
  // the consumer's round-tripping one — anything beyond that is hoarding.
  if (free_buffers_.size() >= 2 * max_in_flight_ + 2) return;
  free_buffers_.push_back(std::move(buf));
}

Status ChunkUnpipeline::fill() {
  while (!terminator_seen_ && in_flight_.size() < max_in_flight_) {
    ChunkFrame frame;
    CRAC_RETURN_IF_ERROR(read_chunk_frame(*source_, frame, framing_, codec_));
    if (frame.raw_size == 0 && frame.stored_size == 0) {
      terminator_seen_ = true;
      return OkStatus();
    }
    // Frame sanity gates every allocation below, so a hostile frame can
    // never demand more than the image's declared chunk size.
    if (frame.raw_size > chunk_size_) {
      return Corrupt("chunk #" + std::to_string(next_index_) +
                     " exceeds declared chunk size");
    }
    if (frame.stored_size > frame.raw_size) {
      return Corrupt("chunk #" + std::to_string(next_index_) +
                     " stored size exceeds raw size");
    }
    std::vector<std::byte> stored = take_buffer();
    stored.resize(static_cast<std::size_t>(frame.stored_size));
    CRAC_RETURN_IF_ERROR(source_->read(stored.data(), stored.size()));
    // A compressed chunk needs a second buffer for the decompressed bytes;
    // a verbatim chunk decodes in place, so don't burn pool capacity on it.
    std::vector<std::byte> scratch;
    if (frame.stored_size != frame.raw_size) scratch = take_buffer();
    const std::uint64_t charge = frame.stored_size + frame.raw_size;
    buffered_bytes_ += charge;
    peak_bytes_ = std::max(peak_bytes_, buffered_bytes_);
    if (pool_ != nullptr) {
      auto task = [frame, stored = std::move(stored),
                   scratch = std::move(scratch)]() mutable {
        return decode_chunk(frame, std::move(stored), std::move(scratch));
      };
      in_flight_.emplace_back(pool_->submit_task(std::move(task)), charge);
    } else {
      // Inline decode still flows through the deque so next() has one
      // retirement path; the "future" is already satisfied.
      std::promise<DecodedChunk> done;
      done.set_value(
          decode_chunk(frame, std::move(stored), std::move(scratch)));
      in_flight_.emplace_back(done.get_future(), charge);
    }
    ++next_index_;
  }
  return OkStatus();
}

Status ChunkUnpipeline::next(std::vector<std::byte>& out, bool& end) {
  // Reclaim whatever capacity the consumer handed back before overwriting
  // it — with a single reused vector on the consumer side, the buffer set
  // reaches a fixed point and decode stops allocating per chunk.
  recycle_buffer(std::move(out));
  out = std::vector<std::byte>();
  end = false;
  if (!error_.ok()) return error_;
  error_ = fill();
  if (!error_.ok()) return error_;
  if (in_flight_.empty()) {
    end = true;
    return OkStatus();
  }
  DecodedChunk chunk = in_flight_.front().first.get();
  buffered_bytes_ -= in_flight_.front().second;
  in_flight_.pop_front();
  recycle_buffer(std::move(chunk.spare));
  if (!chunk.status.ok()) {
    error_ = Status(chunk.status.code(),
                    "chunk #" + std::to_string(retired_index_) + ": " +
                        chunk.status.message());
    return error_;
  }
  ++retired_index_;
  raw_bytes_ += chunk.raw.size();
  out = std::move(chunk.raw);
  // Top the window back up so decode stays ahead of the consumer. A top-up
  // failure must not cost the caller the verified chunk it already earned:
  // latch it and surface it on the next pull instead.
  Status ahead = fill();
  if (!ahead.ok()) error_ = std::move(ahead);
  return OkStatus();
}

}  // namespace crac::ckpt
