package rubisdb

// WAL is the engine's write-ahead log. Records are framed and appended;
// the meter tracks bytes so the tier model can charge journaled write
// traffic to the simulated disk (the reason bid-heavy workloads show more
// physical disk demand than browse-heavy ones).
type WAL struct {
	meter *Meter
	// lsn is the next log sequence number.
	lsn uint64
	// buffered bytes awaiting a group-commit flush.
	buffered float64
	// FlushThreshold triggers a flush when buffered bytes exceed it.
	FlushThreshold float64
	// Flushes counts group commits.
	Flushes uint64
	// TotalBytes counts all framed bytes ever appended.
	TotalBytes float64
}

// walFrameOverhead is the per-record framing: lsn + length + checksum.
const walFrameOverhead = 8 + 4 + 4

// walRecordHeader is the typed-record header: table id + op code.
const walRecordHeader = 4 + 1

// Batched records extend the header with a row count, and every row
// image inside the batch carries a u16 length prefix so recovery can
// split the payload back into the exact per-row images a row-at-a-time
// log would have carried.
const (
	walBatchHeader    = walRecordHeader + 4
	walBatchRowPrefix = 2
)

// NewWAL builds a log metering into meter with a 32 KB group-commit
// threshold.
func NewWAL(meter *Meter) *WAL {
	return &WAL{meter: meter, FlushThreshold: 32 << 10}
}

// AppendRecord frames a typed record (table id + op code + image) and
// returns its LSN. The log accounts by length only — recovery is out of
// scope for the workload study, so the in-memory log never rereads the
// payload — so framing is pure size arithmetic and the image is not
// copied.
func (w *WAL) AppendRecord(table uint32, op byte, image []byte) uint64 {
	return w.appendSized(walRecordHeader + len(image))
}

// AppendBatchRecord frames one record covering rows row images that
// total imageBytes: header, row count, then each image with its length
// prefix. Bulk loads log one batch per heap page instead of one record
// per row (the LOAD DATA shape), which drops the per-row frame+header
// overhead while the logged images stay byte-equivalent to per-row
// framing — the recovery-equivalence property the tests pin.
func (w *WAL) AppendBatchRecord(table uint32, op byte, rows, imageBytes int) uint64 {
	return w.appendSized(walBatchHeader + rows*walBatchRowPrefix + imageBytes)
}

// appendSized appends a record of the given framed length.
func (w *WAL) appendSized(payloadLen int) uint64 {
	lsn := w.lsn
	w.lsn++
	n := float64(payloadLen + walFrameOverhead)
	w.buffered += n
	w.TotalBytes += n
	w.meter.WALBytes += n
	if w.buffered >= w.FlushThreshold {
		w.Flush()
	}
	return lsn
}

// Flush commits buffered bytes.
func (w *WAL) Flush() {
	if w.buffered == 0 {
		return
	}
	w.buffered = 0
	w.Flushes++
}
