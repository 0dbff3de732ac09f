//! Where a harness's bytes go: its table text and the result files it owns.

use faasbatch_metrics::report::text_table;
use serde::Serialize;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The one sink every harness writes through.
///
/// Table text goes to the wrapped writer (`writeln!(out, …)?`); result
/// files go to [`Output::write_file`], which remembers each name so
/// [`regen`](crate::regen::regen_into) can hold a harness to the files the
/// table says it owns. Every failure is an `io::Error` the caller
/// propagates — nothing is best-effort.
pub struct Output {
    dir: PathBuf,
    text: Box<dyn Write>,
    written: Vec<String>,
}

impl Output {
    /// Result files land in `dir`; table text goes to `text`.
    pub fn new(dir: impl Into<PathBuf>, text: Box<dyn Write>) -> Self {
        Output {
            dir: dir.into(),
            text,
            written: Vec::new(),
        }
    }

    /// The directory result files land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Names passed to [`write_file`](Self::write_file) so far, in order.
    pub fn written(&self) -> &[String] {
        &self.written
    }

    /// Prints one line of fixed text.
    pub fn line(&mut self, text: &str) -> io::Result<()> {
        writeln!(self, "{text}")
    }

    /// Prints `rows` under `headers` as an aligned text table.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
        writeln!(self, "{}", text_table(headers, rows))
    }

    /// Writes the result file `name` (creating the directory on first use)
    /// and returns its path for the harness's `wrote …` line.
    pub fn write_file(&mut self, name: &str, contents: impl AsRef<[u8]>) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(name);
        std::fs::write(&path, contents)?;
        self.written.push(name.to_owned());
        Ok(path)
    }
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.text.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.text.flush()
    }
}

/// Pretty-printed JSON of `value`, as the committed `results/*.json` hold it.
pub fn json_pretty<T: Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string_pretty(value).map_err(io::Error::other)
}
