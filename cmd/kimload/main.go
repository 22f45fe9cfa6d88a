// Command kimload bulk-loads CSV data into a kimdb class.
//
// Usage:
//
//	kimload -db /path/to/dbdir -class Part [-create] [-batch 500] data.csv
//
// The CSV header row names the attributes. With -create, the class is
// defined on the fly with domains inferred from the first data row
// (Float for numeric, Boolean for true/false, else String). Values parse
// as: integers,
// floats, true/false, empty string = null, @class:seq = object reference,
// anything else = string. Rows load in batched transactions.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"oodb"
)

func main() {
	dbdir := flag.String("db", "", "database directory (required)")
	class := flag.String("class", "", "target class (required)")
	create := flag.Bool("create", false, "define the class from the CSV header")
	batch := flag.Int("batch", 500, "rows per transaction")
	flag.Parse()
	if *dbdir == "" || *class == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kimload -db dir -class Name [-create] [-batch N] file.csv")
		os.Exit(2)
	}
	if err := run(*dbdir, *class, flag.Arg(0), *create, *batch); err != nil {
		fmt.Fprintln(os.Stderr, "kimload:", err)
		os.Exit(1)
	}
}

func run(dbdir, class, path string, create bool, batch int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
	}

	db, err := oodb.Open(dbdir, oodb.Options{})
	if err != nil {
		return err
	}
	defer db.Close()

	// Read the first data row early: -create infers domains from it.
	first, err := r.Read()
	if err == io.EOF {
		first = nil
	} else if err != nil {
		return err
	}

	if create {
		if _, err := db.ClassByName(class); err != nil {
			attrs := make([]oodb.Attr, len(header))
			for i, name := range header {
				domain := "String"
				if first != nil {
					domain = inferDomain(first[i])
				}
				attrs[i] = oodb.Attr{Name: name, Domain: domain}
			}
			if _, err := db.DefineClass(class, nil, attrs...); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "defined class %s with %d attributes\n", class, len(attrs))
		}
	}

	total := 0
	pending := [][]string{}
	if first != nil {
		pending = append(pending, first)
	}
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := db.Do(func(tx *oodb.Tx) error {
			for _, rec := range pending {
				attrs := oodb.Attrs{}
				for i, name := range header {
					if i >= len(rec) {
						break
					}
					v, err := parseValue(rec[i])
					if err != nil {
						return fmt.Errorf("row %d, column %s: %w", total, name, err)
					}
					if !v.IsNull() {
						attrs[name] = v
					}
				}
				if _, err := tx.Insert(class, attrs); err != nil {
					return err
				}
				total++
			}
			return nil
		})
		pending = pending[:0]
		return err
	}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		pending = append(pending, rec)
		if len(pending) >= batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %d objects into %s\n", total, class)
	return nil
}

// inferDomain guesses a primitive domain from a sample value. Numeric
// cells infer Float — integers widen into a Float domain, so a column
// whose first cell happens to be integral still accepts later decimals.
func inferDomain(s string) string {
	s = strings.TrimSpace(s)
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return "Float"
	}
	if s == "true" || s == "false" {
		return "Boolean"
	}
	return "String"
}

// parseValue converts a CSV cell to a value.
func parseValue(s string) (oodb.Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return oodb.Null, nil
	case s == "true":
		return oodb.Bool(true), nil
	case s == "false":
		return oodb.Bool(false), nil
	case strings.HasPrefix(s, "@"):
		oid, err := oodb.ParseOID(s)
		if err != nil {
			return oodb.Null, err
		}
		return oodb.Ref(oid), nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return oodb.Int(n), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return oodb.Float(f), nil
	}
	return oodb.String(s), nil
}
