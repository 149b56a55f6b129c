package wire

// Batch datagram framing — the UDP transport's only data-plane format: one
// datagram carries every frame destined for a shard that fits under the
// negotiated datagram size, so a 600-node epoch costs a handful of sends
// instead of hundreds. The layout is
//
//	magic 0xD8 | version | round uvarint | baseSeq uvarint |
//	repeated ( to uvarint | frame bytes, length-prefixed )
//
// The round is the parent's barrier round: it scopes the sequence space (a
// query set reuses epoch numbers across member sub-rounds, so the barrier
// counts rounds, not epochs). Sequence numbers are what let a shard
// deduplicate replayed datagrams and report the missing ones at the
// barrier. Each entry names its receiver — it is not inferred from the
// envelope, which only names its sender (a broadcast frame has many
// receivers).
//
// The i-th frame in the batch has sequence number baseSeq+i — consecutive by
// construction, which is what lets the barrier account a lost datagram as a
// contiguous *range* of missing sequence numbers and the parent retransmit
// whole datagram images instead of individual frames. There is no frame
// count in the header: frames are self-delimiting and the datagram boundary
// ends the batch, so the sender can seal a batch the moment the next frame
// would not fit.
//
// Every field arrives from outside the process: decoding never panics, all
// identifiers are bounds-checked, and a hostile header cannot force an
// allocation beyond the datagram itself (FuzzDatagramBatchDecode pins this).

// MaxUDPPayload is the largest UDP payload deliverable over IPv4 (65535
// minus the IP and UDP headers) — the upper bound of the per-link datagram
// size negotiation.
const MaxUDPPayload = 65507

// DatagramBatchMagic is the first byte of every transport datagram;
// anything else is malformed input (most likely a stray packet on a reused
// port).
const DatagramBatchMagic byte = 0xD8

// DatagramVersion is the datagram header version; the second byte.
const DatagramVersion byte = 1

// MaxDatagramSeq bounds the per-round sequence space. It caps the size of a
// shard's deduplication bitset against hostile input (2^20 sequence numbers
// = a 128 KiB bitset at most) and is far above any real epoch's frame count.
const MaxDatagramSeq = 1 << 20

// maxDatagramNode bounds the receiver id, mirroring the envelope's 32-bit
// node identifiers.
const maxDatagramNode = 1<<32 - 1

// AppendDatagramBatch appends a batch datagram header to dst: magic,
// version, the barrier round and the sequence number of the batch's first
// frame. Frames follow via AppendBatchFrame.
//
//td:hotpath
func AppendDatagramBatch(dst []byte, round uint64, baseSeq int) []byte {
	dst = append(dst, DatagramBatchMagic, DatagramVersion)
	dst = AppendUvarint(dst, round)
	return AppendUvarint(dst, uint64(baseSeq))
}

// DatagramBatchOverhead returns the header size AppendDatagramBatch would
// add for the given round and base sequence number.
func DatagramBatchOverhead(round uint64, baseSeq int) int {
	return 2 + UvarintLen(round) + UvarintLen(uint64(baseSeq))
}

// AppendBatchFrame appends one batch entry to dst: the receiving node and
// the length-prefixed envelope frame. The entry's sequence number is implied
// by its position — the batch's baseSeq plus the number of entries appended
// before it.
//
//td:hotpath
func AppendBatchFrame(dst []byte, to int, frame []byte) []byte {
	dst = AppendUvarint(dst, uint64(to))
	return AppendBytes(dst, frame)
}

// BatchFrameLen returns the encoded size of one batch entry — what
// AppendBatchFrame would append — so the sender can seal a batch before an
// entry would push the datagram past the negotiated size.
func BatchFrameLen(to, frameLen int) int {
	return UvarintLen(uint64(to)) + UvarintLen(uint64(frameLen)) + frameLen
}

// DatagramBatch iterates the frames of one batch datagram. Decode the header
// with DecodeDatagramBatch, then advance with Next and read the current
// entry's Seq/To/Frame; after Next returns false, Err distinguishes a clean
// end of batch (nil) from malformed input. Frames alias the input buffer.
type DatagramBatch struct {
	// Round is the parent's barrier round counter (monotonic across epochs
	// and query-set sub-rounds), scoping the sequence space.
	Round uint64
	// Base is the sequence number of the batch's first frame.
	Base int

	r     Reader
	n     int
	to    int
	frame []byte
}

// DecodeDatagramBatch parses a batch datagram header and returns the frame
// iterator. Bad magic, bad version and out-of-range identifiers are errors,
// never panics: this sits on the untrusted receive path.
//
//td:hotpath
func DecodeDatagramBatch(data []byte) (DatagramBatch, error) {
	b := DatagramBatch{r: Reader{buf: data}}
	if c := b.r.Byte(); b.r.Err() == nil && c != DatagramBatchMagic {
		return DatagramBatch{}, ErrMalformed
	}
	if c := b.r.Byte(); b.r.Err() == nil && c != DatagramVersion {
		return DatagramBatch{}, ErrMalformed
	}
	b.Round = b.r.Uvarint()
	base := b.r.Uvarint()
	if b.r.Err() == nil && base >= MaxDatagramSeq {
		return DatagramBatch{}, ErrMalformed
	}
	b.Base = int(base)
	if err := b.r.Err(); err != nil {
		return DatagramBatch{}, err
	}
	return b, nil
}

// Next advances to the batch's next frame, reporting whether one was
// decoded. It returns false at the clean end of the batch and on the first
// malformed entry alike; Err tells them apart. A frame whose implied
// sequence number would leave the bounded per-round sequence space is
// malformed — the dedup bitset on the receive side stays bounded no matter
// what the header claims.
//
//td:hotpath
func (b *DatagramBatch) Next() bool {
	if b.r.err != nil || b.r.Remaining() == 0 {
		return false
	}
	to := b.r.Uvarint()
	frame := b.r.Bytes()
	if b.r.err != nil {
		return false
	}
	if to > maxDatagramNode || b.Base+b.n >= MaxDatagramSeq {
		b.r.fail(ErrMalformed)
		return false
	}
	b.to = int(to)
	b.frame = frame
	b.n++
	return true
}

// Seq returns the current frame's sequence number: Base plus its position
// in the batch.
func (b *DatagramBatch) Seq() int { return b.Base + b.n - 1 }

// To returns the current frame's receiving node id.
func (b *DatagramBatch) To() int { return b.to }

// Frame returns the current frame's envelope bytes, aliasing the input.
func (b *DatagramBatch) Frame() []byte { return b.frame }

// Len returns the number of frames decoded so far.
func (b *DatagramBatch) Len() int { return b.n }

// Err returns nil after a clean end of batch, or the malformation that
// stopped iteration early.
func (b *DatagramBatch) Err() error { return b.r.err }
