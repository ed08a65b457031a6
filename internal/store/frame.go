// The record frame shared by both durable logs: the result cache's
// segment store and the task journal write the same frames into
// append-only segment files, and read them back with one walker under
// one crash-recovery rule.
//
// A frame is
//
//	u32 recLen | u32 keyLen | key | u32 crc32c | payload
//
// recLen counts everything after itself, so a walk can hop frame to
// frame without touching payload bytes. The CRC word covers the
// payload, or the key when the payload is empty (a tombstone).
//
// The walk stops at the first frame whose header is implausible or
// runs past the end of the file: that is a torn tail, the residue of a
// crash mid-append, and it counts once. A whole frame whose CRC fails
// is counted and skipped, and the walk goes on.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"
)

const (
	// maxKeyLen and maxRecordBytes are walk sanity bounds: a header
	// field past them is corruption, not a frame. Appends refuse
	// records that would exceed them.
	maxKeyLen      = 1024
	maxRecordBytes = 64 << 20

	// frameOverhead is the per-frame framing: recLen + keyLen + crc32c
	// words.
	frameOverhead = 12
)

var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSize is the full on-disk size of a frame.
func frameSize(key string, plen int) int64 {
	return int64(frameOverhead + len(key) + plen)
}

// frameFits reports whether a frame of key and a plen-byte payload is
// within the walk's sanity bounds, so a walk will read it back.
func frameFits(key string, plen int) bool {
	return len(key) >= 1 && len(key) <= maxKeyLen && frameSize(key, plen) <= maxRecordBytes
}

// appendFrame appends the frame of payload under key to b: a tombstone
// for key when payload is empty.
func appendFrame(b []byte, key string, payload []byte) []byte {
	crc := crc32.Checksum(payload, crcCastagnoli)
	if len(payload) == 0 {
		crc = crc32.Checksum([]byte(key), crcCastagnoli)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(frameSize(key, len(payload))-4))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return append(b, payload...)
}

// frame is one whole, CRC-clean frame as walkFrames yields it.
type frame struct {
	off  int64 // file offset of the frame's first byte
	key  string
	plen int
	// payload is nil unless the walk reads payloads; it is valid only
	// until the callback returns.
	payload []byte
}

// walkFrames walks the frames of a size-byte segment in file order with
// one buffered sequential pass, calling fn for each whole frame whose
// CRC holds. With payloads false the payload bytes are skipped unread,
// so only a tombstone's CRC (which covers its key) is checked; a
// reader then checks the payload CRC on each read. It returns the
// offset just past the last whole frame, which is below size exactly
// when the segment has a torn tail, and the corrupt count: the torn
// tail once, plus each CRC failure.
func walkFrames(f io.ReaderAt, size int64, payloads bool, fn func(frame)) (end int64, corrupt int) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 1<<20)
	var buf []byte
	for end < size {
		hdr, err := r.Peek(8)
		if err != nil {
			return end, corrupt + 1
		}
		recLen := int64(binary.LittleEndian.Uint32(hdr))
		keyLen := int64(binary.LittleEndian.Uint32(hdr[4:]))
		total := 4 + recLen
		if recLen < 9 || recLen > maxRecordBytes ||
			keyLen < 1 || keyLen > maxKeyLen || keyLen+8 > recLen || end+total > size {
			return end, corrupt + 1
		}
		// b holds the frame through its CRC word, or all of it when the
		// payload is read.
		var b []byte
		if payloads {
			if cap(buf) < int(total) {
				buf = make([]byte, total)
			}
			b = buf[:total]
			_, err = io.ReadFull(r, b)
		} else {
			b, err = r.Peek(12 + int(keyLen))
		}
		if err != nil {
			return end, corrupt + 1
		}
		fr := frame{off: end, key: string(b[8 : 8+keyLen]), plen: int(recLen - keyLen - 8)}
		crc := binary.LittleEndian.Uint32(b[8+keyLen:])
		ok := true
		switch {
		case fr.plen == 0:
			ok = crc == crc32.Checksum(b[8:8+keyLen], crcCastagnoli)
		case payloads:
			fr.payload = b[12+keyLen:]
			ok = crc == crc32.Checksum(fr.payload, crcCastagnoli)
		}
		if !payloads {
			if _, err := r.Discard(int(total)); err != nil {
				return end, corrupt + 1
			}
		}
		if ok {
			fn(fr)
		} else {
			corrupt++
		}
		end += total
	}
	return end, corrupt
}

// segmentNames lists the segment files in dir named prefix*suffix, in
// name order: for zero-padded sequence numbers, the order they were
// written in.
func segmentNames(dir, prefix, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), prefix) && strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
