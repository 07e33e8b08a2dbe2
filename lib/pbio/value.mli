(** Dynamic record values carried by the messaging layer.

    A value mirrors a {!Ptype.t}: records are arrays of mutable named
    entries (mutability is what lets compiled Ecode transformations write
    into a target message in place), arrays are growable so transformation
    code can append entries one at a time, as the paper's Figure 5 code
    does. *)

type t =
  | Int of int
  | Uint of int
  | Float of float
  | Char of char
  | Bool of bool
  | Enum of string * int  (** case name, numeric value *)
  | String of string
  | Record of entry array
  | Array of dynarray

and entry = {
  name : string;
  mutable v : t;
}

and dynarray = {
  mutable items : t array;
  mutable len : int;
  mutable model : t option;
      (** a model element used to fill gaps when the array grows and no
          explicit fill is supplied; {!default} seeds it from the element
          type *)
}

(** Raised by accessors applied to values of the wrong shape. *)
exception Type_error of string

(** {1 Constructors} *)

(** [record fields] builds a record value with the given named fields, in
    order. *)
val record : (string * t) list -> t

(** [array_of_list vs] builds an array value; the first element (if any)
    becomes the growth model. *)
val array_of_list : t list -> t

val empty_array : ?model:t -> unit -> t

(** {1 Scalar accessors}

    C-style coercions: integers, unsigneds, enums, chars and booleans
    interconvert freely; [to_int] of a float is a {!Type_error} (use
    [to_float]). *)

val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool
val to_string_exn : t -> string

(** {1 Record access} *)

val entries : t -> entry array
val field_index : entry array -> string -> int option
val get_field : t -> string -> t
val set_field : t -> string -> t -> unit
val has_field : t -> string -> bool

(** Positional access, used by compiled code after name resolution.  The
    positional and array accessors are marked for inlining, with their
    error paths out of line. *)
val field_at : t -> int -> t

val set_at : t -> int -> t -> unit

(** {1 Array access} *)

val dyn : t -> dynarray
val array_len : t -> int
val array_get : t -> int -> t

(** [array_set a i x] stores [x] at index [i], growing the array when [i]
    is at or past the end.  Each gap slot gets its own element: the first
    takes [fill] (default: a copy of the array's model element), the rest
    copies of it.  An append ([i] = length) builds no fill. *)
val array_set : ?fill:t -> t -> int -> t -> unit

val array_push : t -> t -> unit
val array_truncate : t -> int -> unit

(** The fill element {!array_set} would use for a growing write. *)
val fill_for : dynarray -> t

(** {1 Deep operations} *)

(** Structure-preserving deep copy (record and array assignment in Ecode
    copies, like C struct assignment). *)
val copy : t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Defaults and conformance} *)

(** Interpret a default constant at a basic type. *)
val of_const : Ptype.const -> ty:Ptype.basic -> t

(** The zero value of a basic type (first case for enums). *)
val zero_basic : Ptype.basic -> t

(** The default value of a type: explicit field defaults where declared,
    zeros elsewhere; fixed arrays filled, variable arrays empty (with their
    element model set). *)
val default : Ptype.t -> t

val default_record : Ptype.record -> t

(** [record_builder n entry] builds records of [n] entries, entry [i]
    being [entry i x] (called in index order).  Small arities allocate the
    entry array as a literal, each entry stored once with its final value;
    {!maker}, {!maker_around}, {!copier} and the fused morph plans build
    their records with it. *)
val record_builder : int -> (int -> 'a -> entry) -> 'a -> t

(** [maker ty] is {!default} specialised to [ty]: the type is walked once,
    and each call of the result builds a fresh default value.  Scalar
    fields and variable-array growth models are shared between the values
    it builds. *)
val maker : Ptype.t -> unit -> t

(** [maker_around ty i] builds a fresh default of the record type [ty]
    whose field [i] holds the given value; the default of field [i] is
    never built.  Other fields are as {!maker} builds them, declared
    default constants included.  Raises [Invalid_argument] unless [ty] is
    a record type with a field [i]. *)
val maker_around : Ptype.t -> int -> t -> t

(** [copier ty] is {!copy} specialised to values of type [ty] (or of the
    same shape): scalars are shared, not walked.  A copied array of
    records or arrays takes a shared default of its element type as its
    growth model; a scalar array keeps its (immutable) model.  Values of
    another shape fall back to {!copy}. *)
val copier : Ptype.t -> t -> t

(** Does the value match the type description exactly (names, shapes,
    fixed-array lengths, enum cases)? *)
val conforms : Ptype.t -> t -> bool

(** Overwrite every variable-array length field with the actual array
    length, recursively.  Encoders require the two to agree. *)
val sync_lengths : Ptype.record -> t -> unit
