//! D5 positive: a bare `#[allow]`.

#[allow(dead_code)] // violation: clippy::allow_attributes_without_reason
fn helper() {}
