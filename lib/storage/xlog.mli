(** Length-prefixed, CRC-checked, LSN-stamped binary frames and the
    xlog/snap file format built from them (DESIGN.md §16).

    One frame is [\[len:u32le\]\[lsn:u64le\]\[crc:u32le\]\[payload\]],
    with the CRC-32 covering the LSN bytes followed by the payload.  A
    file is an 8-byte magic ({!wal_magic} or {!snap_magic}) followed by
    frames.  Torn-vs-corrupt discipline: an incomplete or checksum-torn
    frame at exactly end-of-file is a {e torn tail} (truncate-and-warn);
    any earlier decoding failure is {e corruption} (structured error,
    recovery refuses). *)

val header_bytes : int
(** Frame header size (16). *)

val max_payload : int
(** Per-frame payload limit (256 MiB). *)

type frame_error =
  | Torn  (** incomplete frame: more bytes were expected *)
  | Crc_mismatch of int
      (** full frame present, checksum fails; carries the frame's total
          byte extent so the file layer can test "ends exactly at EOF" *)
  | Malformed of string  (** impossible length field / LSN *)

val pp_frame_error : frame_error Fmt.t

val encode_frame : lsn:int -> string -> string
(** @raise Invalid_argument on a negative LSN or oversized payload. *)

val decode_frame : ?pos:int -> string -> (int * string * int, frame_error) result
(** [decode_frame ~pos buf] parses one frame, returning
    [(lsn, payload, bytes_consumed)].  Total round-trip laws
    (test/test_props.ml): [decode_frame (encode_frame ~lsn p) =
    Ok (lsn, p, _)]; every strict prefix decodes to [Error Torn]; any
    single-byte flip is detected; random bytes never raise. *)

(** {2 Files} *)

val wal_magic : string
(** ["CWAL0001"], opens every log segment. *)

val snap_magic : string
(** ["CSNP0001"], opens every snapshot file. *)

type scan = {
  frames : (int * string) list;  (** (lsn, payload) in file order *)
  valid_size : int;  (** offset just past the last valid frame *)
  torn : bool;  (** a torn tail follows [valid_size] *)
}

val scan_file : magic:string -> string -> (scan, string) result
(** Read and validate one file.  [Error] on I/O failure, bad magic, or
    mid-file corruption; a torn tail is reported in the [scan], not as
    an error. *)

(** {2 Writer} *)

type writer

val create_writer : magic:string -> string -> writer
(** Create/truncate the file and write the magic. *)

val append_writer : magic:string -> string -> valid_size:int -> writer
(** Reopen an existing file for appending, truncating a torn tail away
    first ([valid_size] from {!scan_file}). *)

val append : writer -> lsn:int -> string -> unit
(** Write one frame (buffered by the OS; {!sync} makes it durable). *)

val sync : writer -> unit
(** fsync. *)

val close_writer : writer -> unit
