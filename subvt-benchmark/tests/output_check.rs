//! The byte-exact output check catches any single changed byte.

use subvt_benchmark::check::identical;

const REFERENCE: &str = "Node,L_poly (nm),T_ox (nm)\n90nm,65,2.10\n65nm,46,1.89\n";

#[test]
fn an_identical_output_passes() {
    assert!(identical("table", REFERENCE.as_bytes(), REFERENCE.as_bytes()).is_ok());
}

#[test]
fn every_single_mutated_byte_is_rejected() {
    for at in 0..REFERENCE.len() {
        let mut mutated = REFERENCE.as_bytes().to_vec();
        mutated[at] ^= 0x01;
        let err = identical("table", REFERENCE.as_bytes(), &mutated)
            .expect_err("a flipped bit must not pass");
        assert!(err.contains(&format!("byte {at}")), "{err}");
    }
}

#[test]
fn truncation_and_extension_are_rejected() {
    let bytes = REFERENCE.as_bytes();
    assert!(identical("table", bytes, &bytes[..bytes.len() - 1]).is_err());
    let mut longer = bytes.to_vec();
    longer.push(b'\n');
    assert!(identical("table", bytes, &longer).is_err());
}
