(** XML parser: turns a document string into a {!Tree.t}. *)

exception Error of int * string
(** [Error (pos, msg)]: syntax error at byte offset [pos]. *)

(** [parse_string s] parses a complete XML document with a single root
    element. Elements may nest at most 64 levels deep, the root counting
    as level 1. @raise Error on malformed input, or on deeper nesting. *)
val parse_string : string -> Tree.t

(** [parse_file path] reads [path] and parses it, as {!parse_string}.
    @raise Error on malformed input, [Sys_error] on I/O failure. *)
val parse_file : string -> Tree.t
