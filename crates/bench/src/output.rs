//! Where a harness's bytes go: its table text and the result files it owns.

use faasbatch_metrics::report::text_table;
use serde::Serialize;
use std::io::{self, Write};
use std::path::PathBuf;

/// The one sink every harness writes through.
///
/// Table text goes to the wrapped writer (`writeln!(out, …)?`) and is kept,
/// so [`Output::save_text`] can commit what was printed as a result file;
/// result files go to [`Output::write_file`], which remembers each name so
/// [`regen`](crate::regen::regen_into) can hold a harness to the files the
/// table says it owns. Every failure is an `io::Error` the caller
/// propagates — nothing is best-effort.
pub struct Output {
    dir: PathBuf,
    text: Box<dyn Write>,
    /// The table text printed since the last [`save_text`](Self::save_text).
    kept: Vec<u8>,
    written: Vec<String>,
}

impl Output {
    /// Result files land in `dir`; table text goes to `text`.
    pub fn new(dir: impl Into<PathBuf>, text: Box<dyn Write>) -> Self {
        Output {
            dir: dir.into(),
            text,
            kept: Vec::new(),
            written: Vec::new(),
        }
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
    /// and prints a `wrote <path>` line, which is not kept.
    pub fn write_file(&mut self, name: &str, contents: impl AsRef<[u8]>) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(name);
        std::fs::write(&path, contents)?;
        self.written.push(name.to_owned());
        writeln!(self.text, "wrote {}", path.display())
    }

    /// Writes the table text printed since the last save as the result
    /// file `name`.
    pub fn save_text(&mut self, name: &str) -> io::Result<()> {
        let kept = std::mem::take(&mut self.kept);
        self.write_file(name, kept)
    }
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.text.write(buf)?;
        self.kept.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.text.flush()
    }
}

/// Pretty-printed JSON of `value`, as the committed `results/*.json` hold it.
pub fn json_pretty<T: Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string_pretty(value).map_err(io::Error::other)
}
