// Fed as `crates/journal/src/len_helper.rs`. A length decoded inside a
// helper fn and returned unchecked: the caller's binding is untrusted,
// so the cursor arithmetic is a deny.
fn read_len(r: &mut Reader) -> Result<usize> {
    let n = r.u32()?;
    Ok(n as usize)
}

pub fn frame_end(r: &mut Reader, pos: usize) -> Result<usize> {
    let n = read_len(r)?;
    let end = pos + n;
    Ok(end)
}
