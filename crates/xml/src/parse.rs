//! Minimal XML parser for the structural subset the paper needs.
//!
//! Supported: elements (with attributes, which are skipped), self-closing
//! tags, character data (skipped — values are out of scope per §1/§2),
//! comments, processing instructions, an XML declaration, CDATA sections
//! and a DOCTYPE line (all skipped). Namespaces are treated as part of the
//! tag string. Anything structurally ill-formed is an [`XmlError`].

use crate::error::XmlError;
use crate::tree::{Document, DocumentBuilder};

/// Parses `input` into a [`Document`] holding the element structure.
///
/// ```
/// use axqa_xml::parse_document;
///
/// let doc = parse_document("<bib><book id='1'>text</book></bib>").unwrap();
/// assert_eq!(doc.len(), 2); // values and attributes carry no structure
/// assert_eq!(doc.label_name(doc.root()), "bib");
/// ```
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut builder: Option<DocumentBuilder> = None;
    // Tags currently open, for mismatch diagnostics.
    let mut open: Vec<String> = Vec::new();
    let mut root_closed = false;

    // Start of the text run since the last markup event (numeric leaf
    // text becomes the element's value; everything else is skipped).
    let mut text_start: Option<usize> = None;

    while pos < bytes.len() {
        if bytes[pos] != b'<' {
            // Character data: remembered only to check for a numeric
            // leaf value at the next closing tag.
            if text_start.is_none() {
                text_start = Some(pos);
            }
            pos += 1;
            continue;
        }
        if input[pos..].starts_with("<!--") {
            pos = skip_until(input, pos + 4, "-->", "unterminated comment")?;
        } else if input[pos..].starts_with("<![CDATA[") {
            pos = skip_until(input, pos + 9, "]]>", "unterminated CDATA section")?;
        } else if input[pos..].starts_with("<!") {
            // DOCTYPE or other declaration: skip to the matching '>'.
            pos = skip_until(input, pos + 2, ">", "unterminated declaration")?;
        } else if input[pos..].starts_with("<?") {
            pos = skip_until(input, pos + 2, "?>", "unterminated processing instruction")?;
        } else if input[pos..].starts_with("</") {
            let (tag, end) = read_name(input, pos + 2)?;
            let close_at = find_gt(input, end)?;
            match open.pop() {
                Some(expected) if expected == tag => {
                    let Some(b) = builder.as_mut() else {
                        return Err(XmlError::Malformed {
                            message: "closing tag before any element".into(),
                            offset: pos,
                        });
                    };
                    // Numeric text directly inside a leaf becomes its
                    // value (the value-content extension).
                    if let Some(start) = text_start {
                        if b.current_is_leaf() {
                            if let Ok(v) = input[start..pos].trim().parse::<f64>() {
                                b.set_current_value(v);
                            }
                        }
                    }
                    if open.is_empty() {
                        root_closed = true;
                    } else {
                        b.close();
                    }
                }
                Some(expected) => {
                    return Err(XmlError::MismatchedTag {
                        expected,
                        found: tag,
                        offset: pos,
                    });
                }
                None => {
                    return Err(XmlError::Malformed {
                        message: format!("closing tag </{tag}> with no open element"),
                        offset: pos,
                    });
                }
            }
            pos = close_at + 1;
        } else {
            // Opening or self-closing tag.
            let (tag, after_name) = read_name(input, pos + 1)?;
            let gt = find_gt(input, after_name)?;
            let self_closing = bytes[gt - 1] == b'/';
            if root_closed {
                return Err(XmlError::MultipleRoots { offset: pos });
            }
            match builder.as_mut() {
                None => {
                    let b = DocumentBuilder::new(&tag);
                    builder = Some(b);
                    if self_closing {
                        root_closed = true;
                    } else {
                        open.push(tag);
                    }
                }
                Some(b) => {
                    if open.is_empty() {
                        return Err(XmlError::MultipleRoots { offset: pos });
                    }
                    if self_closing {
                        b.leaf(&tag);
                    } else {
                        b.open(&tag);
                        open.push(tag);
                    }
                }
            }
            pos = gt + 1;
        }
        text_start = None;
    }

    match builder {
        None => Err(XmlError::EmptyDocument),
        Some(b) => {
            if let Some(tag) = open.pop() {
                return Err(XmlError::UnexpectedEof {
                    open_tag: Some(tag),
                });
            }
            Ok(b.finish())
        }
    }
}

/// Skips forward from `from` to just past the next occurrence of `needle`.
fn skip_until(input: &str, from: usize, needle: &str, what: &str) -> Result<usize, XmlError> {
    match input[from..].find(needle) {
        Some(i) => Ok(from + i + needle.len()),
        None => Err(XmlError::Malformed {
            message: what.to_owned(),
            offset: from,
        }),
    }
}

/// Reads a tag name starting at `from`; returns (name, position after it).
fn read_name(input: &str, from: usize) -> Result<(String, usize), XmlError> {
    let bytes = input.as_bytes();
    let mut end = from;
    while end < bytes.len() {
        let b = bytes[end];
        let is_name = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
        if !is_name {
            break;
        }
        end += 1;
    }
    if end == from {
        return Err(XmlError::Malformed {
            message: "expected tag name".to_owned(),
            offset: from,
        });
    }
    Ok((input[from..end].to_owned(), end))
}

/// Finds the closing `>` of a tag, respecting quoted attribute values.
fn find_gt(input: &str, from: usize) -> Result<usize, XmlError> {
    let bytes = input.as_bytes();
    let mut pos = from;
    let mut quote: Option<u8> = None;
    while pos < bytes.len() {
        let b = bytes[pos];
        match quote {
            Some(q) => {
                if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'"' | b'\'' => quote = Some(b),
                b'>' => return Ok(pos),
                b'<' => {
                    return Err(XmlError::Malformed {
                        message: "'<' inside tag".to_owned(),
                        offset: pos,
                    });
                }
                _ => {}
            },
        }
        pos += 1;
    }
    Err(XmlError::UnexpectedEof { open_tag: None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_nesting() {
        let doc = parse_document("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.len(), 4);
        assert_eq!(doc.label_name(doc.root()), "a");
        let kids: Vec<_> = doc
            .children(doc.root())
            .map(|n| doc.label_name(n).to_owned())
            .collect();
        assert_eq!(kids, vec!["b", "b"]);
    }

    #[test]
    fn skips_text_attributes_comments_pis() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE bib>
<bib year="2004">
  <!-- a comment with <b> inside -->
  <paper id="1">Approximate <em>XML</em> answers</paper>
  <![CDATA[<not><elements>]]>
</bib>"#;
        let doc = parse_document(src).unwrap();
        // bib, paper, em
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.label_name(doc.root()), "bib");
    }

    #[test]
    fn self_closing_root() {
        let doc = parse_document("<only/>").unwrap();
        assert_eq!(doc.len(), 1);
        assert!(doc.is_leaf(doc.root()));
    }

    #[test]
    fn quoted_gt_in_attribute() {
        let doc = parse_document(r#"<a title="x > y"><b/></a>"#).unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn mismatched_tag_is_reported() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        match err {
            XmlError::MismatchedTag {
                expected, found, ..
            } => {
                assert_eq!(expected, "b");
                assert_eq!(found, "a");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unclosed_element_is_reported() {
        let err = parse_document("<a><b>").unwrap_err();
        assert_eq!(
            err,
            XmlError::UnexpectedEof {
                open_tag: Some("b".into())
            }
        );
    }

    #[test]
    fn multiple_roots_rejected() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert!(matches!(err, XmlError::MultipleRoots { .. }));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            parse_document("  \n ").unwrap_err(),
            XmlError::EmptyDocument
        );
    }

    #[test]
    fn stray_close_rejected() {
        assert!(matches!(
            parse_document("</a>"),
            Err(XmlError::Malformed { .. })
        ));
    }

    #[test]
    fn namespaced_tags_kept_verbatim() {
        let doc = parse_document("<ns:a><ns:b/></ns:a>").unwrap();
        assert_eq!(doc.label_name(doc.root()), "ns:a");
    }
}

#[cfg(test)]
mod value_tests {
    use super::*;
    use crate::write::write_document;

    #[test]
    fn numeric_leaf_text_becomes_value() {
        let doc = parse_document("<p><year>2004</year><title>XML answers</title></p>").unwrap();
        let year = doc
            .node_ids()
            .find(|&n| doc.label_name(n) == "year")
            .unwrap();
        let title = doc
            .node_ids()
            .find(|&n| doc.label_name(n) == "title")
            .unwrap();
        assert_eq!(doc.value(year), Some(2004.0));
        assert_eq!(doc.value(title), None); // non-numeric text skipped
    }

    #[test]
    fn values_roundtrip_through_writer() {
        let src = "<r><price>19.5</price><qty>3</qty><note/></r>";
        let doc = parse_document(src).unwrap();
        assert_eq!(write_document(&doc), src);
        let reparsed = parse_document(&write_document(&doc)).unwrap();
        assert_eq!(reparsed.num_values(), 2);
    }

    #[test]
    fn internal_text_never_becomes_a_value() {
        // Mixed content around a child: the parent is not a leaf.
        let doc = parse_document("<a>12<b/>34</a>").unwrap();
        assert_eq!(doc.value(doc.root()), None);
    }

    #[test]
    fn negative_and_float_values() {
        let doc = parse_document("<r><t>-2.75</t></r>").unwrap();
        let t = doc.node_ids().find(|&n| doc.label_name(n) == "t").unwrap();
        assert_eq!(doc.value(t), Some(-2.75));
    }
}
