//! The strict object reader every decoder in the workspace shares.
//!
//! One rule defines "strict" for a JSON object, whatever document it
//! belongs to (wire frames, replication frames, spans, metrics
//! snapshots, alert rules, registry snapshots, journal lines, the lock
//! database): an **unknown** field, a **duplicated** field, a
//! **missing** field and a **wrong-typed** field are each an error that
//! names the field. A decoder takes the fields it understands, then
//! calls [`StrictObj::finish`], which refuses whatever was not taken.

use crate::Json;
use std::fmt;

/// A strict-decoding failure; the message names the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for std::io::Error {
    fn from(e: FieldError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.message)
    }
}

/// Reads one JSON object field by field. Every field must be taken
/// exactly once: [`StrictObj::opt`] refuses a name that occurs twice, and
/// [`StrictObj::finish`] refuses any field left untaken.
///
/// Taken fields are tracked in one `u64` bit mask, so a reader costs no
/// allocation; objects are therefore capped at [`StrictObj::MAX_FIELDS`]
/// fields, far above any schema in the workspace.
#[derive(Debug)]
pub struct StrictObj<'a> {
    what: &'a str,
    fields: &'a [(String, Json)],
    taken: u64,
}

impl<'a> StrictObj<'a> {
    /// Most fields one strictly read object may have.
    pub const MAX_FIELDS: usize = 64;

    /// Starts reading `j`; `what` names the object in every error
    /// ("request", "snapshot record 3", ...).
    ///
    /// # Errors
    ///
    /// `j` is not an object, or has more than [`StrictObj::MAX_FIELDS`]
    /// fields.
    pub fn new(j: &'a Json, what: &'a str) -> Result<StrictObj<'a>, FieldError> {
        match j {
            Json::Obj(fields) if fields.len() <= Self::MAX_FIELDS => Ok(StrictObj {
                what,
                fields,
                taken: 0,
            }),
            Json::Obj(_) => Err(FieldError {
                message: format!("{what} has more than {} fields", Self::MAX_FIELDS),
            }),
            _ => Err(FieldError {
                message: format!("{what} must be a JSON object"),
            }),
        }
    }

    fn error(&self, detail: std::fmt::Arguments<'_>) -> FieldError {
        FieldError {
            message: format!("{} {detail}", self.what),
        }
    }

    fn missing(&self, name: &str) -> FieldError {
        self.error(format_args!("missing field {name:?}"))
    }

    /// An error naming field `name` of this object as ill-typed:
    /// `expected` completes "must be ..." (e.g. `"a string"`). Public so
    /// decoders report their own value checks in the same words.
    pub fn wrong(&self, name: &str, expected: &str) -> FieldError {
        self.error(format_args!("field {name:?} must be {expected}"))
    }

    /// Takes field `name` if present.
    ///
    /// # Errors
    ///
    /// The name occurs more than once.
    pub fn opt(&mut self, name: &str) -> Result<Option<&'a Json>, FieldError> {
        let mut found = None;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if k == name {
                if found.is_some() {
                    return Err(self.error(format_args!("has duplicate field {name:?}")));
                }
                found = Some(v);
                self.taken |= 1 << i;
            }
        }
        Ok(found)
    }

    /// Takes required field `name`.
    ///
    /// # Errors
    ///
    /// Missing or duplicated.
    pub fn req(&mut self, name: &str) -> Result<&'a Json, FieldError> {
        self.opt(name)?.ok_or_else(|| self.missing(name))
    }

    fn typed<T>(
        &mut self,
        name: &str,
        expected: &str,
        cast: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, FieldError> {
        match self.opt(name)? {
            None => Ok(None),
            Some(v) => cast(v).map(Some).ok_or_else(|| self.wrong(name, expected)),
        }
    }

    /// Takes optional string field `name`.
    ///
    /// # Errors
    ///
    /// Duplicated, or present but not a string.
    pub fn opt_str(&mut self, name: &str) -> Result<Option<&'a str>, FieldError> {
        self.typed(name, "a string", Json::as_str)
    }

    /// Takes required string field `name`.
    ///
    /// # Errors
    ///
    /// Missing, duplicated, or not a string.
    pub fn str(&mut self, name: &str) -> Result<&'a str, FieldError> {
        self.opt_str(name)?.ok_or_else(|| self.missing(name))
    }

    /// Takes optional unsigned-integer field `name`.
    ///
    /// # Errors
    ///
    /// Duplicated, or present but not an unsigned integer.
    pub fn opt_u64(&mut self, name: &str) -> Result<Option<u64>, FieldError> {
        self.typed(name, "an unsigned integer", Json::as_u64)
    }

    /// Takes required unsigned-integer field `name`.
    ///
    /// # Errors
    ///
    /// Missing, duplicated, or not an unsigned integer.
    pub fn u64(&mut self, name: &str) -> Result<u64, FieldError> {
        self.opt_u64(name)?.ok_or_else(|| self.missing(name))
    }

    /// Takes required boolean field `name`.
    ///
    /// # Errors
    ///
    /// Missing, duplicated, or not a boolean.
    pub fn bool(&mut self, name: &str) -> Result<bool, FieldError> {
        self.typed(name, "a boolean", Json::as_bool)?
            .ok_or_else(|| self.missing(name))
    }

    /// Takes optional array field `name`.
    ///
    /// # Errors
    ///
    /// Duplicated, or present but not an array.
    pub fn opt_arr(&mut self, name: &str) -> Result<Option<&'a [Json]>, FieldError> {
        self.typed(name, "an array", Json::as_arr)
    }

    /// Takes required array field `name`.
    ///
    /// # Errors
    ///
    /// Missing, duplicated, or not an array.
    pub fn arr(&mut self, name: &str) -> Result<&'a [Json], FieldError> {
        self.opt_arr(name)?.ok_or_else(|| self.missing(name))
    }

    /// Takes required field `name` as an array of unsigned integers.
    ///
    /// # Errors
    ///
    /// Missing, duplicated, or not an array of unsigned integers.
    pub fn u64_arr(&mut self, name: &str) -> Result<Vec<u64>, FieldError> {
        self.arr(name)?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| self.wrong(name, "an array of unsigned integers")))
            .collect()
    }

    /// Takes required field `name` as an array of strings.
    ///
    /// # Errors
    ///
    /// Missing, duplicated, or not an array of strings.
    pub fn str_arr(&mut self, name: &str) -> Result<Vec<String>, FieldError> {
        self.arr(name)?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| self.wrong(name, "an array of strings"))
            })
            .collect()
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// Names the first field no call took.
    pub fn finish(self) -> Result<(), FieldError> {
        match (0..self.fields.len()).find(|&i| self.taken & (1 << i) == 0) {
            None => Ok(()),
            Some(i) => Err(self.error(format_args!("has unknown field {:?}", self.fields[i].0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn reads_every_field_once() {
        let j = obj("{\"s\":\"x\",\"n\":7,\"b\":true,\"a\":[1,2],\"t\":[\"p\"],\"o\":null}");
        let mut f = StrictObj::new(&j, "thing").unwrap();
        assert_eq!(f.str("s").unwrap(), "x");
        assert_eq!(f.u64("n").unwrap(), 7);
        assert!(f.bool("b").unwrap());
        assert_eq!(f.u64_arr("a").unwrap(), vec![1, 2]);
        assert_eq!(f.str_arr("t").unwrap(), vec!["p".to_string()]);
        assert_eq!(f.req("o").unwrap(), &Json::Null);
        assert_eq!(f.opt_str("absent").unwrap(), None);
        f.finish().unwrap();
    }

    #[test]
    fn each_violation_names_the_field() {
        for (text, want) in [
            ("{\"a\":1,\"zz\":2}", "thing has unknown field \"zz\""),
            ("{\"a\":1,\"a\":2}", "thing has duplicate field \"a\""),
            ("{}", "thing missing field \"a\""),
            ("{\"a\":\"1\"}", "thing field \"a\" must be an unsigned integer"),
        ] {
            let j = obj(text);
            let mut f = StrictObj::new(&j, "thing").unwrap();
            let err = f.u64("a").and_then(|_| f.finish()).unwrap_err();
            assert_eq!(err.message, want, "{text}");
        }
        // A duplicate is refused even when the reader never asks for it.
        let j = obj("{\"a\":1,\"b\":2,\"b\":3}");
        let mut f = StrictObj::new(&j, "thing").unwrap();
        f.u64("a").unwrap();
        assert!(f.finish().unwrap_err().message.contains("unknown field \"b\""));
    }

    #[test]
    fn non_objects_and_oversized_objects_are_refused() {
        assert!(StrictObj::new(&Json::U64(1), "x").is_err());
        let wide = Json::Obj((0..=StrictObj::MAX_FIELDS).map(|i| (format!("f{i}"), Json::Null)).collect());
        assert!(StrictObj::new(&wide, "x").unwrap_err().message.contains("more than 64"));
    }
}
