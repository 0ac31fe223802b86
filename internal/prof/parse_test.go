package prof

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// PprofSummary is what ParsePprof extracts from an encoded profile —
// enough structure to assert a profile round-trips (TestProfSmoke and
// the encoder tests use it; the repo deliberately carries no protobuf
// dependency).
type PprofSummary struct {
	SampleTypes int
	Samples     int
	Locations   int
	Functions   int
	Strings     int
}

// ParsePprof gunzips and walks the top-level fields of a pprof
// protobuf stream, validating the wire format as it goes.
func ParsePprof(r io.Reader) (PprofSummary, error) {
	var sum PprofSummary
	gz, err := gzip.NewReader(r)
	if err != nil {
		return sum, fmt.Errorf("prof: pprof stream not gzipped: %w", err)
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		return sum, err
	}
	i := 0
	readVarint := func() (uint64, error) {
		var v uint64
		var shift uint
		for {
			if i >= len(data) {
				return 0, errors.New("prof: truncated varint")
			}
			b := data[i]
			i++
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return v, nil
			}
			shift += 7
			if shift > 63 {
				return 0, errors.New("prof: varint overflow")
			}
		}
	}
	for i < len(data) {
		key, err := readVarint()
		if err != nil {
			return sum, err
		}
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case wireVarint:
			if _, err := readVarint(); err != nil {
				return sum, err
			}
		case wireBytes:
			n, err := readVarint()
			if err != nil {
				return sum, err
			}
			if uint64(len(data)-i) < n {
				return sum, errors.New("prof: truncated length-delimited field")
			}
			i += int(n)
		default:
			return sum, fmt.Errorf("prof: unexpected wire type %d for field %d", wire, field)
		}
		switch field {
		case 1:
			sum.SampleTypes++
		case 2:
			sum.Samples++
		case 4:
			sum.Locations++
		case 5:
			sum.Functions++
		case 6:
			sum.Strings++
		}
	}
	if sum.Strings == 0 {
		return sum, errors.New("prof: profile has no string table")
	}
	return sum, nil
}
