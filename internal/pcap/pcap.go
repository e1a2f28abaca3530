// Package pcap reads and writes libpcap capture files and parses packet
// headers down to the 5-tuple — the front half of the paper's pipeline
// ("After capturing each packet, we extract the information of the 5-tuple
// packet header", Section 6.1).
//
// Supported on the read path: both byte orders, microsecond and nanosecond
// timestamp variants, Ethernet (with one level of 802.1Q VLAN tagging) and
// raw-IP link types, IPv4 with options, and TCP/UDP/ICMP transports.
// Non-IPv4 frames and non-first IP fragments are counted and skipped, as a
// measurement point would. The write path emits standard microsecond
// little-endian captures, so synthetic traces can be exported for other
// tools.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/caesar-sketch/caesar/internal/hashing"
)

// Magic numbers of the classic pcap format.
const (
	magicUsecLE = 0xa1b2c3d4
	magicNsecLE = 0xa1b23c4d
)

// Link types we can parse.
const (
	// LinkEthernet is DLT_EN10MB.
	LinkEthernet = 1
	// LinkRaw is DLT_RAW: packets start at the IP header.
	LinkRaw = 101
)

// ErrNotPcap reports a stream that does not begin with a pcap magic number.
var ErrNotPcap = errors.New("pcap: bad magic, not a pcap file")

// Packet is one parsed capture record.
type Packet struct {
	// Tuple is the flow key parsed from the headers.
	Tuple hashing.FiveTuple
	// TimestampNs is the capture timestamp in nanoseconds since the epoch.
	TimestampNs uint64
	// Length is the original (untruncated) packet length in bytes.
	Length int
}

// Stats counts what the reader saw.
type Stats struct {
	// Records is the total number of capture records.
	Records int
	// Parsed is how many yielded a 5-tuple.
	Parsed int
	// SkippedNonIP counts non-IPv4 frames (ARP, IPv6, ...).
	SkippedNonIP int
	// SkippedFragments counts non-first IP fragments (no L4 header).
	SkippedFragments int
	// SkippedTruncated counts records whose snaplen cut the headers off.
	SkippedTruncated int
	// SkippedTransport counts IPv4 packets with unsupported protocols.
	SkippedTransport int
}

// Reader decodes a pcap stream record by record.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType uint32
	stats    Stats
	// buf is the reused record buffer behind NextPacket/ReadBlock: parse
	// never retains record bytes past the call, so one capture-sized buffer
	// serves the whole replay and the steady state allocates nothing.
	buf []byte
	// hdr is the record-header scratch. A local array would escape through
	// the io.ReadFull interface call and cost one heap allocation per record.
	hdr [16]byte
}

// NewReader parses the global header and returns a reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	pr := &Reader{r: br}
	switch {
	case magicLE == magicUsecLE:
		pr.order = binary.LittleEndian
	case magicLE == magicNsecLE:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == magicUsecLE:
		pr.order = binary.BigEndian
	case magicBE == magicNsecLE:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, ErrNotPcap
	}
	pr.linkType = pr.order.Uint32(hdr[20:24])
	if pr.linkType != LinkEthernet && pr.linkType != LinkRaw {
		return nil, fmt.Errorf("pcap: unsupported link type %d", pr.linkType)
	}
	return pr, nil
}

// LinkType returns the capture's link type.
func (pr *Reader) LinkType() uint32 { return pr.linkType }

// Stats returns the running skip/parse counters.
func (pr *Reader) Stats() Stats { return pr.stats }

// Next returns the next parseable packet. Records that cannot yield a
// 5-tuple are skipped (and counted); io.EOF signals a clean end of capture.
func (pr *Reader) Next() (Packet, error) {
	var p Packet
	if err := pr.NextPacket(&p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// NextPacket decodes the next parseable packet into *p, reusing the reader's
// internal record buffer: after the first few records the replay loop
// performs no allocation per packet, which is what the line-rate ingest
// benchmarks (and any production replay) want. Records that cannot yield a
// 5-tuple are skipped and counted; io.EOF signals a clean end of capture.
//
//caesar:hotpath the per-packet decode of a capture replay
func (pr *Reader) NextPacket(p *Packet) error {
	for {
		rec := pr.hdr[:]
		//caesar:ignore allocfree pr.r is a pointer (*bufio.Reader); pointer-to-interface conversion stores the pointer directly and does not box
		if _, err := io.ReadFull(pr.r, rec); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			//caesar:ignore allocfree error path only, terminal for the replay — never taken on the steady-state per-packet path
			return fmt.Errorf("pcap: reading record header: %w", err)
		}
		sec := pr.order.Uint32(rec[0:4])
		frac := pr.order.Uint32(rec[4:8])
		capLen := pr.order.Uint32(rec[8:12])
		origLen := pr.order.Uint32(rec[12:16])
		const maxSane = 1 << 20
		if capLen > maxSane {
			//caesar:ignore allocfree error path only, terminal for the replay — never taken on the steady-state per-packet path
			return fmt.Errorf("pcap: implausible captured length %d", capLen)
		}
		if uint32(cap(pr.buf)) < capLen {
			//caesar:ignore allocfree grows at most a handful of times per capture (monotone to the largest snapped record), then every record reuses it
			pr.buf = make([]byte, capLen)
		}
		data := pr.buf[:capLen]
		//caesar:ignore allocfree pr.r is a pointer (*bufio.Reader); pointer-to-interface conversion stores the pointer directly and does not box
		if _, err := io.ReadFull(pr.r, data); err != nil {
			//caesar:ignore allocfree error path only, terminal for the replay — never taken on the steady-state per-packet path
			return fmt.Errorf("pcap: reading %d-byte record: %w", capLen, err)
		}
		pr.stats.Records++

		ts := uint64(sec) * 1e9
		if pr.nanos {
			ts += uint64(frac)
		} else {
			ts += uint64(frac) * 1e3
		}

		tuple, ok := pr.parse(data)
		if !ok {
			continue
		}
		pr.stats.Parsed++
		p.Tuple, p.TimestampNs, p.Length = tuple, ts, int(origLen)
		return nil
	}
}

// ReadBlock decodes up to len(dst) packets into dst and returns how many it
// filled. A short count with a nil error never occurs: the only short return
// is the final one, paired with io.EOF (possibly n > 0), or a real decode
// error. Allocation-free in the steady state, like NextPacket.
func (pr *Reader) ReadBlock(dst []Packet) (int, error) {
	for n := range dst {
		if err := pr.NextPacket(&dst[n]); err != nil {
			return n, err
		}
	}
	return len(dst), nil
}

// AppendTuples appends the 5-tuples of pkts[:n] to dst and returns it —
// the glue between ReadBlock and the fused tuple-block ingest paths
// (FlowIDer.IDBlock, WindowIngester.ObservePackets): the replay loop keeps one
// []Packet and one []FiveTuple and reuses both every block, so the
// extraction is allocation-free in the steady state.
//
//caesar:hotpath the per-block tuple extraction of a fused capture replay
func AppendTuples(dst []hashing.FiveTuple, pkts []Packet) []hashing.FiveTuple {
	//caesar:ignore allocfree grows only until dst reaches the replay's block size, then every block reuses it
	dst = slices.Grow(dst, len(pkts))
	for i := range pkts {
		//caesar:ignore allocfree dst was pre-grown to len(pkts) just above; the append writes into reserved capacity
		dst = append(dst, pkts[i].Tuple)
	}
	return dst
}

// ReadAll drains the capture into a slice.
func (pr *Reader) ReadAll() ([]Packet, error) {
	var pkts []Packet
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}

// parse walks link → network → transport headers.
func (pr *Reader) parse(data []byte) (hashing.FiveTuple, bool) {
	if pr.linkType == LinkEthernet {
		if len(data) < 14 {
			pr.stats.SkippedTruncated++
			return hashing.FiveTuple{}, false
		}
		etherType := binary.BigEndian.Uint16(data[12:14])
		data = data[14:]
		if etherType == 0x8100 { // 802.1Q VLAN tag
			if len(data) < 4 {
				pr.stats.SkippedTruncated++
				return hashing.FiveTuple{}, false
			}
			etherType = binary.BigEndian.Uint16(data[2:4])
			data = data[4:]
		}
		if etherType != 0x0800 { // not IPv4
			pr.stats.SkippedNonIP++
			return hashing.FiveTuple{}, false
		}
	}
	return pr.parseIPv4(data)
}

func (pr *Reader) parseIPv4(data []byte) (hashing.FiveTuple, bool) {
	if len(data) < 20 {
		pr.stats.SkippedTruncated++
		return hashing.FiveTuple{}, false
	}
	if data[0]>>4 != 4 {
		pr.stats.SkippedNonIP++
		return hashing.FiveTuple{}, false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		pr.stats.SkippedTruncated++
		return hashing.FiveTuple{}, false
	}
	fragField := binary.BigEndian.Uint16(data[6:8])
	if fragField&0x1fff != 0 { // nonzero fragment offset: no L4 header
		pr.stats.SkippedFragments++
		return hashing.FiveTuple{}, false
	}
	t := hashing.FiveTuple{
		SrcIP: binary.BigEndian.Uint32(data[12:16]),
		DstIP: binary.BigEndian.Uint32(data[16:20]),
		Proto: data[9],
	}
	l4 := data[ihl:]
	switch t.Proto {
	case 6, 17: // TCP, UDP: ports in the first 4 bytes
		if len(l4) < 4 {
			pr.stats.SkippedTruncated++
			return hashing.FiveTuple{}, false
		}
		t.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		t.DstPort = binary.BigEndian.Uint16(l4[2:4])
	case 1: // ICMP: no ports; type/code distinguish "flows" poorly, use 0
		t.SrcPort, t.DstPort = 0, 0
	default:
		pr.stats.SkippedTransport++
		return hashing.FiveTuple{}, false
	}
	return t, true
}

// Writer emits a classic little-endian microsecond pcap with Ethernet
// framing and minimal synthesized headers — enough for any pcap tool to
// read the 5-tuples back.
type Writer struct {
	w       *bufio.Writer
	started bool
}

// NewWriter wraps w; the global header is written on the first packet (or
// Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (pw *Writer) writeGlobalHeader() error {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], magicUsecLE)
	le.PutUint16(hdr[4:6], 2)       // version major
	le.PutUint16(hdr[6:8], 4)       // version minor
	le.PutUint32(hdr[16:20], 1<<16) // snaplen
	le.PutUint32(hdr[20:24], LinkEthernet)
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket appends one synthesized packet: Ethernet + IPv4 + 4 bytes of
// L4 ports (TCP/UDP) or ICMP header. length is the claimed original packet
// size (clamped to at least the synthesized headers).
func (pw *Writer) WritePacket(t hashing.FiveTuple, timestampNs uint64, length int) error {
	if !pw.started {
		if err := pw.writeGlobalHeader(); err != nil {
			return err
		}
		pw.started = true
	}
	// Ethernet(14) + IPv4(20) + L4 stub(4).
	frame := make([]byte, 14+20+4)
	be := binary.BigEndian
	frame[12], frame[13] = 0x08, 0x00 // IPv4 ethertype
	ip := frame[14:]
	ip[0] = 0x45 // v4, ihl=5
	be.PutUint16(ip[2:4], uint16(20+4))
	ip[8] = 64 // TTL
	ip[9] = t.Proto
	be.PutUint32(ip[12:16], t.SrcIP)
	be.PutUint32(ip[16:20], t.DstIP)
	be.PutUint16(ip[10:12], ipChecksum(ip[:20]))
	l4 := ip[20:]
	switch t.Proto {
	case 6, 17:
		be.PutUint16(l4[0:2], t.SrcPort)
		be.PutUint16(l4[2:4], t.DstPort)
	default:
		// ICMP echo request stub.
		l4[0] = 8
	}

	if length < len(frame) {
		length = len(frame)
	}
	var rec [16]byte
	le := binary.LittleEndian
	le.PutUint32(rec[0:4], uint32(timestampNs/1e9))
	le.PutUint32(rec[4:8], uint32(timestampNs%1e9/1e3))
	le.PutUint32(rec[8:12], uint32(len(frame)))
	le.PutUint32(rec[12:16], uint32(length))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	return err
}

// Flush writes any buffered data (and the global header if no packets were
// written).
func (pw *Writer) Flush() error {
	if !pw.started {
		if err := pw.writeGlobalHeader(); err != nil {
			return err
		}
		pw.started = true
	}
	return pw.w.Flush()
}

func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
