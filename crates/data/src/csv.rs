//! Dependency-free CSV ingestion and export.
//!
//! Supports the simple numeric-matrix CSVs the system consumes: a
//! configurable delimiter, an optional header row, `#`-prefixed comment
//! lines, and blank-line tolerance. Quoting is not supported (numeric
//! data never needs it); a quote character in the input is a parse
//! error rather than silently misread data.

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::subspace::MAX_DIM;
use crate::Result;
use std::io::{self, Read, Write};
use std::path::Path;

/// CSV reading options.
#[derive(Clone, Debug)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first non-comment line is a header of column names.
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: false,
        }
    }
}

/// Least input a parse thread is given: four times the piece size at
/// which splitting starts to pay. On 2 vCPUs, one piece against two
/// (medians of 41 alternating runs over prefixes of deep-search's CSV)
/// read 0.37 vs 0.46 ms at 64 KiB, 0.70 vs 0.57 ms at 128 KiB, 1.31
/// vs 0.85 ms at 256 KiB and 2.66 vs 1.61 ms at 512 KiB. On the whole
/// 4.4 MB file, `hos-serve`'s `load_ms` (12 alternating starts each)
/// read a median of 27.7 ms (range 18.2–29.7) in one piece and 16.5 ms
/// (12.4–17.4) in two, lower in all 12 pairs.
const MIN_CHUNK_BYTES: usize = 256 << 10;

/// Reads a dataset from any reader.
///
/// The input is read whole, then parsed line by line without a
/// per-line allocation. The header and the first data row (which fixes
/// the arity) are parsed serially; the rest is split at line
/// boundaries into one chunk per core, each of about 256 KiB or more,
/// parsed on scoped threads and concatenated in order. The dataset,
/// and the first error in input order, are the same for any split.
pub fn read_csv<R: Read>(mut reader: R, opts: &CsvOptions) -> Result<Dataset> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunks = (bytes.len() / MIN_CHUNK_BYTES).clamp(1, cores);
    parse_csv(&bytes, opts, chunks)
}

/// [`read_csv`] over an in-memory input, with the remainder after the
/// first data row parsed in (up to) `chunks` pieces.
fn parse_csv(bytes: &[u8], opts: &CsvOptions, chunks: usize) -> Result<Dataset> {
    let mut names: Option<Vec<String>> = None;
    let mut data: Vec<f64> = Vec::new();
    let mut d = None;
    let mut lineno = 0;
    let mut rest = bytes;
    while d.is_none() {
        let Some((line, tail)) = next_line(rest) else {
            break;
        };
        rest = tail;
        lineno += 1;
        let Some(trimmed) = content(line, lineno)? else {
            continue;
        };
        if opts.has_header && names.is_none() {
            names = Some(
                trimmed
                    .split(opts.delimiter)
                    .map(|s| s.trim().to_string())
                    .collect(),
            );
            continue;
        }
        let width = parse_row(trimmed, opts.delimiter, lineno, &mut data)?;
        if width > MAX_DIM {
            return Err(DataError::DimTooLarge {
                dim: width,
                max: MAX_DIM,
            });
        }
        check_finite(&data, 0)?;
        d = Some(width);
    }
    if let Some(d) = d {
        let pieces = split_at_lines(rest, chunks);
        let parsed: Vec<Result<Chunk>> = match pieces[..] {
            [] => Vec::new(),
            [whole] => vec![parse_chunk(whole, opts.delimiter, d)],
            _ => std::thread::scope(|scope| {
                let handles: Vec<_> = pieces
                    .iter()
                    .map(|&piece| scope.spawn(move || parse_chunk(piece, opts.delimiter, d)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a CSV chunk parser panicked"))
                    .collect()
            }),
        };
        // The first error in input order wins; the chunks before it
        // parsed whole, so their line and row counts place it.
        let mut rows = 1;
        for chunk in parsed {
            match chunk {
                Ok(c) => {
                    data.extend_from_slice(&c.data);
                    lineno += c.lines;
                    rows += c.rows;
                }
                Err(DataError::Parse { line, msg }) => {
                    return Err(DataError::Parse {
                        line: lineno + line,
                        msg,
                    })
                }
                Err(DataError::NonFinite { row, col }) => {
                    return Err(DataError::NonFinite {
                        row: rows + row,
                        col,
                    })
                }
                Err(other) => return Err(other),
            }
        }
    }
    let mut ds = Dataset::from_flat(data, d.unwrap_or(0))?;
    if let Some(ns) = names {
        ds = ds.with_names(ns)?;
    }
    Ok(ds)
}

/// The rows of one chunk, with its line and row counts.
struct Chunk {
    data: Vec<f64>,
    lines: usize,
    rows: usize,
}

/// Parses the data rows of `text`, each `d` wide. Error lines and rows
/// count from the chunk's start (line 1, row 0).
fn parse_chunk(text: &[u8], delimiter: char, d: usize) -> Result<Chunk> {
    let mut chunk = Chunk {
        data: Vec::new(),
        lines: 0,
        rows: 0,
    };
    let mut rest = text;
    while let Some((line, tail)) = next_line(rest) {
        rest = tail;
        chunk.lines += 1;
        let Some(trimmed) = content(line, chunk.lines)? else {
            continue;
        };
        let start = chunk.data.len();
        let got = parse_row(trimmed, delimiter, chunk.lines, &mut chunk.data)?;
        if got != d {
            return Err(DataError::Parse {
                line: chunk.lines,
                msg: format!("expected {d} columns, got {got}"),
            });
        }
        check_finite(&chunk.data[start..], chunk.rows)?;
        chunk.rows += 1;
    }
    Ok(chunk)
}

/// Splits off the first line of `text` the way
/// [`std::io::BufRead::lines`] does: up to the next `\n`, or the
/// unterminated rest; `None` once `text` is empty.
fn next_line(text: &[u8]) -> Option<(&[u8], &[u8])> {
    if text.is_empty() {
        return None;
    }
    Some(match text.iter().position(|&b| b == b'\n') {
        Some(i) => (&text[..i], &text[i + 1..]),
        None => (text, &text[text.len()..]),
    })
}

/// Splits `text` into at most `parts` pieces of about equal length,
/// each ending just after a `\n` (the last at the end of `text`).
fn split_at_lines(text: &[u8], parts: usize) -> Vec<&[u8]> {
    let parts = parts.max(1);
    let mut pieces = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 1..=parts {
        let target = (text.len() * i / parts).max(start);
        let end = match text[target..].iter().position(|&b| b == b'\n') {
            Some(at) if i < parts => target + at + 1,
            _ => text.len(),
        };
        if end > start {
            pieces.push(&text[start..end]);
            start = end;
        }
    }
    pieces
}

/// The trimmed content of a line, or `None` for a blank or comment
/// line. Invalid UTF-8 and quotes are errors.
fn content(line: &[u8], lineno: usize) -> Result<Option<&str>> {
    let line = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    if trimmed.contains('"') {
        return Err(DataError::Parse {
            line: lineno,
            msg: "quoted fields are not supported".into(),
        });
    }
    Ok(Some(trimmed))
}

/// Appends the fields of one data line to `out`; returns their count.
fn parse_row(trimmed: &str, delimiter: char, lineno: usize, out: &mut Vec<f64>) -> Result<usize> {
    let start = out.len();
    for field in trimmed.split(delimiter) {
        let v: f64 = field.trim().parse().map_err(|_| DataError::Parse {
            line: lineno,
            msg: format!("invalid number {:?}", field.trim()),
        })?;
        out.push(v);
    }
    Ok(out.len() - start)
}

/// The `NonFinite` error [`crate::DatasetBuilder::push_row`] gives a
/// row.
fn check_finite(row: &[f64], index: usize) -> Result<()> {
    match row.iter().position(|v| !v.is_finite()) {
        Some(col) => Err(DataError::NonFinite { row: index, col }),
        None => Ok(()),
    }
}

/// Reads a dataset from a file path.
pub fn read_csv_path<P: AsRef<Path>>(path: P, opts: &CsvOptions) -> Result<Dataset> {
    let f = std::fs::File::open(path)?;
    read_csv(f, opts)
}

/// Writes a dataset as CSV (header included when names are present).
pub fn write_csv<W: Write>(ds: &Dataset, writer: &mut W, delimiter: char) -> Result<()> {
    if let Some(names) = ds.names() {
        let header: Vec<&str> = names.iter().map(String::as_str).collect();
        writeln!(writer, "{}", header.join(&delimiter.to_string()))?;
    }
    let mut buf = String::new();
    for (_, row) in ds.iter() {
        buf.clear();
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                buf.push(delimiter);
            }
            // `{}` prints f64 round-trippably in Rust.
            buf.push_str(&v.to_string());
        }
        writeln!(writer, "{buf}")?;
    }
    Ok(())
}

/// Writes a dataset to a file path.
pub fn write_csv_path<P: AsRef<Path>>(ds: &Dataset, path: P, delimiter: char) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_csv(ds, &mut f, delimiter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_no_header() {
        let ds = Dataset::from_rows(&[vec![1.0, 2.5], vec![-3.0, 0.125]]).unwrap();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf, ',').unwrap();
        let back = read_csv(&buf[..], &CsvOptions::default()).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn roundtrip_with_header() {
        let ds = Dataset::from_rows(&[vec![1.0, 2.0]])
            .unwrap()
            .with_names(vec!["x".into(), "y".into()])
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf, ';').unwrap();
        let opts = CsvOptions {
            delimiter: ';',
            has_header: true,
        };
        let back = read_csv(&buf[..], &opts).unwrap();
        assert_eq!(back.names().unwrap(), &["x".to_string(), "y".to_string()]);
        assert_eq!(back.row(0), ds.row(0));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# comment\n\n1,2\n  \n3,4\n";
        let ds = read_csv(text.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn reports_line_numbers_on_bad_number() {
        let text = "1,2\n3,oops\n";
        let err = read_csv(text.as_bytes(), &CsvOptions::default()).unwrap_err();
        match err {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reports_line_numbers_on_ragged_rows() {
        let text = "1,2\n3\n";
        let err = read_csv(text.as_bytes(), &CsvOptions::default()).unwrap_err();
        match err {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_quotes() {
        let text = "\"1\",2\n";
        assert!(read_csv(text.as_bytes(), &CsvOptions::default()).is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let text = " 1 , 2 \n";
        let ds = read_csv(text.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(ds.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn empty_input_gives_empty_dataset() {
        let ds = read_csv("".as_bytes(), &CsvOptions::default()).unwrap();
        assert!(ds.is_empty());
    }

    /// The line-at-a-time reader this module used before the one-pass
    /// parser: the oracle for its datasets and errors.
    fn reference_read_csv(bytes: &[u8], opts: &CsvOptions) -> Result<Dataset> {
        use crate::dataset::DatasetBuilder;
        use std::io::BufRead;
        let mut builder = DatasetBuilder::new();
        let mut names: Option<Vec<String>> = None;
        let mut saw_header = false;
        let mut row: Vec<f64> = Vec::new();
        for (lineno, line) in bytes.lines().enumerate() {
            let line = line?;
            let lineno = lineno + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if trimmed.contains('"') {
                return Err(DataError::Parse {
                    line: lineno,
                    msg: "quoted fields are not supported".into(),
                });
            }
            if opts.has_header && !saw_header {
                saw_header = true;
                names = Some(
                    trimmed
                        .split(opts.delimiter)
                        .map(|s| s.trim().to_string())
                        .collect(),
                );
                continue;
            }
            row.clear();
            for field in trimmed.split(opts.delimiter) {
                let v: f64 = field.trim().parse().map_err(|_| DataError::Parse {
                    line: lineno,
                    msg: format!("invalid number {:?}", field.trim()),
                })?;
                row.push(v);
            }
            builder.push_row(&row).map_err(|e| match e {
                DataError::Shape { expected, got } => DataError::Parse {
                    line: lineno,
                    msg: format!("expected {expected} columns, got {got}"),
                },
                other => other,
            })?;
        }
        let mut ds = builder.build()?;
        if let Some(ns) = names {
            ds = ds.with_names(ns)?;
        }
        Ok(ds)
    }

    /// Same dataset to the bit, or the same error: variant, message
    /// (line, row and column included) and I/O kind.
    fn assert_same(got: &Result<Dataset>, want: &Result<Dataset>, what: &str) {
        match (got, want) {
            (Ok(a), Ok(b)) => {
                assert_eq!((a.len(), a.dim(), a.names()), (b.len(), b.dim(), b.names()));
                for i in 0..a.len() {
                    let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a.row(i)), bits(b.row(i)), "{what}: row {i}");
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{what}: {a:?} vs {b:?}"
                );
                assert_eq!(a.to_string(), b.to_string(), "{what}");
                if let (DataError::Io(x), DataError::Io(y)) = (a, b) {
                    assert_eq!(x.kind(), y.kind(), "{what}");
                }
            }
            _ => panic!("{what}: got {got:?}, want {want:?}"),
        }
    }

    /// A random CSV text: numbers in several spellings, comments,
    /// blank and whitespace lines, CRLF endings, a header, and now
    /// and then a ragged row, a bad number, NaN/inf, a quote or an
    /// invalid UTF-8 byte.
    fn random_text(rng: &mut rand::rngs::StdRng, delimiter: char, header: bool) -> Vec<u8> {
        use rand::Rng;
        let d = rng.gen_range(1..5usize);
        let fault = if rng.gen_bool(0.3) { 0.0 } else { 0.04 };
        let mut out = Vec::new();
        if header && rng.gen_bool(0.8) {
            let names: Vec<String> = (0..d).map(|i| format!(" c{i} ")).collect();
            out.extend_from_slice(names.join(&delimiter.to_string()).as_bytes());
            out.push(b'\n');
        }
        for _ in 0..rng.gen_range(0..40) {
            let line: Vec<u8> = match rng.gen_range(0..100) {
                0..=7 => b"# a comment, with 1,2".to_vec(),
                8..=13 => [&b""[..], b"  ", b"\t", b"\r"][rng.gen_range(0..4)].to_vec(),
                _ => {
                    let width = if rng.gen_bool(fault) {
                        [d - 1, d + 1][rng.gen_range(0..2)]
                    } else {
                        d
                    };
                    let fields: Vec<String> = (0..width)
                        .map(|_| {
                            if rng.gen_bool(fault) {
                                let odd = ["x", "", "1.2.3", "NaN", "inf", "-inf", "\"1\""];
                                odd[rng.gen_range(0..odd.len())].to_string()
                            } else {
                                let v: f64 = rng.gen_range(-1e3..1e3);
                                match rng.gen_range(0..4) {
                                    0 => format!("{v}"),
                                    1 => format!(" {:.3} ", v),
                                    2 => format!("{v:e}"),
                                    _ => format!("{}", v.round() as i64),
                                }
                            }
                        })
                        .collect();
                    let mut line = fields.join(&delimiter.to_string()).into_bytes();
                    if rng.gen_bool(fault / 2.0) {
                        line.push(0xff);
                    }
                    line
                }
            };
            out.extend_from_slice(&line);
            out.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
        }
        if rng.gen_bool(0.5) {
            // An unterminated last line.
            while out.last() == Some(&b'\n') || out.last() == Some(&b'\r') {
                out.pop();
            }
        }
        out
    }

    #[test]
    fn any_chunk_count_matches_the_line_reader() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut outcomes = [0usize; 2];
        for case in 0..3000 {
            let delimiter = if case % 4 == 3 { ';' } else { ',' };
            let opts = CsvOptions {
                delimiter,
                has_header: case % 3 == 0,
            };
            let text = random_text(&mut rng, delimiter, opts.has_header);
            let want = reference_read_csv(&text, &opts);
            outcomes[want.is_ok() as usize] += 1;
            for chunks in [1, 2, 7] {
                let got = parse_csv(&text, &opts, chunks);
                let what = format!(
                    "case {case}, {chunks} chunks: {:?}",
                    String::from_utf8_lossy(&text)
                );
                assert_same(&got, &want, &what);
            }
        }
        // Both outcomes are well represented.
        assert!(outcomes.iter().all(|&n| n > 500), "{outcomes:?}");
    }

    #[test]
    fn large_inputs_parse_in_parallel_to_the_same_dataset() {
        let mut text = String::from("# generated\n");
        let mut i = 0u64;
        while text.len() < 2 * MIN_CHUNK_BYTES + 4096 {
            text.push_str(&format!("{},{}.25,-{}e-3\n", i, i % 97, i * 7));
            i += 1;
        }
        let want = reference_read_csv(text.as_bytes(), &CsvOptions::default());
        assert!(want.is_ok());
        let got = read_csv(text.as_bytes(), &CsvOptions::default());
        assert_same(&got, &want, "large input");
        // A bad number deep in the input is reported at its own line.
        text.push_str("1,2,oops\n");
        let lines = text.lines().count();
        let err = read_csv(text.as_bytes(), &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("parse error at line {lines}: invalid number \"oops\"")
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hos_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let ds = Dataset::from_rows(&[vec![9.0, 8.0, 7.0]]).unwrap();
        write_csv_path(&ds, &path, ',').unwrap();
        let back = read_csv_path(&path, &CsvOptions::default()).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(path).ok();
    }
}
