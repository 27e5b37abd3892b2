//! Declarations of the Courier constructor types: the one rule for how a
//! RECORD, a CHOICE, an enumeration and a newtype are laid out on the
//! wire (§7.1.4: a declared type's externalization follows from its
//! declaration).
//!
//! Each macro emits the type exactly as written — attributes, doc
//! comments, visibility and fields — and its [`Externalize`] and
//! [`Internalize`] implementations. The crates declare their wire types
//! with them and the `stubgen` compiler emits them for an interface's
//! types; a type laid out any other way (a set that checks its ranges,
//! a message that reads to its end) writes its two implementations by
//! hand.
//!
//! A RECORD or CHOICE may take lifetime and type parameters. A field of
//! type `&'a [u8]` or `&'a str` borrows from the buffer it is read from,
//! and a type parameter makes one declaration both the owned form and
//! the zero-copy view of it (`Form<Vec<u8>>` and `Form<&[u8]>`): the two
//! cannot lay the form out differently. A type parameter may carry one
//! bound, which the type and both implementations keep: bound by
//! [`Block`], it holds a byte block and nothing else.
//!
//! [`Block`]: crate::Block
//! [`Externalize`]: crate::Externalize
//! [`Internalize`]: crate::Internalize

/// Declares a RECORD: a struct with one or more named fields that
/// externalizes as the tuple of its fields, in declaration order.
///
/// ```
/// wire::record! {
///     #[derive(Debug, PartialEq)]
///     pub struct Entry {
///         pub key: u64,
///         pub tags: Vec<String>,
///     }
/// }
/// let e = Entry { key: 7, tags: vec!["a".into()] };
/// assert_eq!(wire::to_bytes(&e), wire::to_bytes(&(7u64, vec!["a"])));
/// ```
///
/// With a type parameter, one declaration is the owned form and the view
/// that borrows from the buffer; bound by [`Block`](crate::Block), the
/// parameter is a byte block, owned or borrowed:
///
/// ```
/// wire::record! {
///     #[derive(Debug, PartialEq)]
///     pub struct Note<B: wire::Block = Vec<u8>> {
///         pub id: u64,
///         pub body: B,
///     }
/// }
/// let bytes = wire::to_bytes(&Note { id: 1, body: vec![7u8, 8] });
/// let view: Note<&[u8]> = wire::from_bytes(&bytes).unwrap();
/// assert_eq!(view, Note { id: 1, body: &[7, 8][..] });
/// assert_eq!(wire::to_bytes(&view), bytes);
/// ```
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$($lt:lifetime),* $(,)? $($param:ident $(: $bound:path)? $(= $default:ty)?),*>)? {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$($lt,)* $($param $(: $bound)? $(= $default)?),*>)? {
            $($(#[$field_meta])* $field_vis $field: $ty,)+
        }

        impl $(<$($lt,)* $($param: $crate::Externalize $(+ $bound)?),*>)? $crate::Externalize
            for $name $(<$($lt,)* $($param),*>)?
        {
            fn externalize(&self, w: &mut $crate::Writer) {
                $($crate::Externalize::externalize(&self.$field, w);)+
            }
        }

        impl<'__r $(, $($lt,)* $($param: $crate::Internalize<'__r> $(+ $bound)?),*)?> $crate::Internalize<'__r>
            for $name $(<$($lt,)* $($param),*>)?
        where
            $($('__r: $lt,)*)?
        {
            fn internalize(r: &mut $crate::Reader<'__r>) -> ::core::result::Result<Self, $crate::WireError> {
                ::core::result::Result::Ok($name {
                    $($field: <$ty as $crate::Internalize<'__r>>::internalize(r)?,)+
                })
            }
        }
    };
}

/// Declares a CHOICE: an enum of variants of no fields or of one to
/// eight, each with its designator (`Variant(A, B) = 2`, which the
/// emitted enum does not carry; a constant serves as well as a literal).
/// A value externalizes as its designator word, then its fields in order;
/// an unknown designator is [`WireError::BadChoice`].
///
/// ```
/// wire::choice! {
///     #[derive(Debug, PartialEq)]
///     pub enum Shape {
///         Circle(u32) = 0,
///         Rect(u32, u32) = 5,
///         Empty = 6,
///     }
/// }
/// assert_eq!(wire::to_bytes(&Shape::Rect(1, 2)), wire::to_bytes(&(5u16, 1u32, 2u32)));
/// assert_eq!(wire::to_bytes(&Shape::Empty), vec![0, 6]);
/// let one = wire::to_bytes(&(1u16, 9u32));
/// assert_eq!(wire::from_bytes::<Shape>(&one), Err(wire::WireError::BadChoice(1)));
/// ```
///
/// [`WireError::BadChoice`]: crate::WireError::BadChoice
#[macro_export]
macro_rules! choice {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident $(<$($lt:lifetime),* $(,)? $($param:ident $(: $bound:path)? $(= $default:ty)?),*>)? {
            $($(#[$variant_meta:meta])* $variant:ident $(($($ty:ty),+ $(,)?))? = $designator:expr),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name $(<$($lt,)* $($param $(: $bound)? $(= $default)?),*>)? {
            $($(#[$variant_meta])* $variant $(($($ty),+))?,)+
        }

        impl $(<$($lt,)* $($param: $crate::Externalize $(+ $bound)?),*>)? $crate::Externalize
            for $name $(<$($lt,)* $($param),*>)?
        {
            fn externalize(&self, w: &mut $crate::Writer) {
                match self {
                    $($crate::__choice_fields!(@pattern $name $variant [] [$($($ty),+)?] [f0 f1 f2 f3 f4 f5 f6 f7]) => {
                        w.put_designator($designator);
                        $crate::__choice_fields!(@put w [] [$($($ty),+)?] [f0 f1 f2 f3 f4 f5 f6 f7]);
                    })+
                }
            }
        }

        impl<'__r $(, $($lt,)* $($param: $crate::Internalize<'__r> $(+ $bound)?),*)?> $crate::Internalize<'__r>
            for $name $(<$($lt,)* $($param),*>)?
        where
            $($('__r: $lt,)*)?
        {
            fn internalize(r: &mut $crate::Reader<'__r>) -> ::core::result::Result<Self, $crate::WireError> {
                match r.get_designator()? {
                    $(d if d == $designator => ::core::result::Result::Ok($name::$variant $((
                        $(<$ty as $crate::Internalize<'__r>>::internalize(r)?),+
                    ))?),)+
                    d => ::core::result::Result::Err($crate::WireError::BadChoice(d)),
                }
            }
        }
    };
}

/// Names a choice variant's fields, one spare name per field type, then
/// emits the variant's pattern (`@pattern`) or writes the fields (`@put`).
#[doc(hidden)]
#[macro_export]
macro_rules! __choice_fields {
    (@pattern $name:ident $variant:ident [] [] $spare:tt) => {
        $name::$variant
    };
    (@pattern $name:ident $variant:ident [$($f:ident)*] [] $spare:tt) => {
        $name::$variant($($f),*)
    };
    (@put $w:ident [$($f:ident)*] [] $spare:tt) => {
        $($crate::Externalize::externalize($f, $w);)*
    };
    (@$mode:ident $($arg:ident)* [$($f:ident)*] [$head:ty $(, $rest:ty)*] [$next:ident $($spare:ident)*]) => {
        $crate::__choice_fields!(@$mode $($arg)* [$($f)* $next] [$($rest),*] [$($spare)*])
    };
}

/// Declares an enumeration: a fieldless enum whose items carry their
/// values (`Item = 3`), externalized as that value in one word; an
/// unknown word is [`WireError::BadEnum`].
///
/// ```
/// wire::enumeration! {
///     #[derive(Clone, Copy, Debug, PartialEq)]
///     pub enum Colour {
///         Red = 0,
///         Green = 7,
///     }
/// }
/// assert_eq!(wire::to_bytes(&Colour::Green), vec![0, 7]);
/// assert_eq!(wire::from_bytes::<Colour>(&[0, 1]), Err(wire::WireError::BadEnum(1)));
/// ```
///
/// [`WireError::BadEnum`]: crate::WireError::BadEnum
#[macro_export]
macro_rules! enumeration {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$item_meta:meta])* $item:ident = $value:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$item_meta])* $item = $value,)+
        }

        impl $crate::Externalize for $name {
            fn externalize(&self, w: &mut $crate::Writer) {
                match self {
                    $($name::$item => w.put_u16($value),)+
                }
            }
        }

        impl $crate::Internalize<'_> for $name {
            fn internalize(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                match r.get_u16()? {
                    $($value => ::core::result::Result::Ok($name::$item),)+
                    w => ::core::result::Result::Err($crate::WireError::BadEnum(w)),
                }
            }
        }
    };
}

/// Declares a newtype: a one-field tuple struct that externalizes as the
/// value it wraps.
///
/// ```
/// wire::newtype! {
///     #[derive(Debug, PartialEq)]
///     pub struct Serial(pub u64);
/// }
/// assert_eq!(wire::to_bytes(&Serial(9)), wire::to_bytes(&9u64));
/// ```
#[macro_export]
macro_rules! newtype {
    ($(#[$meta:meta])* $vis:vis struct $name:ident($field_vis:vis $ty:ty);) => {
        $(#[$meta])*
        $vis struct $name($field_vis $ty);

        impl $crate::Externalize for $name {
            fn externalize(&self, w: &mut $crate::Writer) {
                $crate::Externalize::externalize(&self.0, w);
            }
        }

        impl $crate::Internalize<'_> for $name {
            fn internalize(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                ::core::result::Result::Ok($name(<$ty as $crate::Internalize<'_>>::internalize(r)?))
            }
        }
    };
}
