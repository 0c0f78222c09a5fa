package rubisdb

// The write-ahead log is metered, not kept: recovery is out of scope for
// the workload study, so a record's only effect is its framed size on
// Meter.WALBytes, which the tier model charges to the simulated disk as
// journaled write traffic (the reason bid-heavy workloads show more
// physical disk demand than browse-heavy ones).

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

// logRecord meters one typed record carrying a row image of imageBytes.
func (m *Meter) logRecord(imageBytes int) {
	m.WALBytes += float64(walRecordHeader + imageBytes + walFrameOverhead)
}

// logBatch meters one record covering rows row images that total
// imageBytes: header, row count, then each image with its length prefix.
// Bulk loads log one batch per heap page instead of one record per row
// (the LOAD DATA shape), which drops the per-row frame+header overhead
// while the logged images stay byte-equivalent to per-row framing — the
// recovery-equivalence property the tests pin.
func (m *Meter) logBatch(rows, imageBytes int) {
	m.WALBytes += float64(walBatchHeader + rows*walBatchRowPrefix + imageBytes + walFrameOverhead)
}
