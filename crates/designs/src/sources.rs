//! Verilog sources for every benchmark design.
//!
//! `cex_small`, `arbiter2` and `arbiter4` follow the paper's §7 block
//! descriptions (`arbiter2` is the paper's RTL verbatim). The Rigel
//! stages are written to the interfaces and signal names the paper uses
//! (`stall_in`, `branch_pc`, `branch_mispredict`, `icache_rdvl_i`,
//! `valid`), scaled to bench-friendly widths. The ITC'99-style blocks
//! are re-implementations from the published benchmark descriptions
//! (`b01`, `b02`, `b09`) and scaled structural analogues for the large
//! ones (`b12_lite`, `b17_lite`, `b18_lite`) — each constant's doc
//! comment below says what the analogue keeps of the original.

/// Small combinational example block (the paper's `cex_small`): the
/// mux-style function of Figure 2 plus a carry-out expression so that
/// expression coverage has something to chew on.
pub const CEX_SMALL: &str = "
module cex_small(input a, input b, input c, output z, output w);
  assign z = (a & b) | (~a & c);
  assign w = (a & b) ^ (b & c) ^ (a & c);
endmodule
";

/// The paper's two-port round-robin arbiter with priority on port 0
/// (§6, Figure 7 — verbatim RTL).
pub const ARBITER2: &str = "
module arbiter2(input clk, input rst, input req0, input req1,
                output reg gnt0, output reg gnt1);
  always @(posedge clk)
    if (rst) begin
      gnt0 <= 0;
      gnt1 <= 0;
    end else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
endmodule
";

/// Four-port arbiter with more internal state (the paper's `arbiter4`):
/// a rotating-priority pointer plus one grant register per port.
pub const ARBITER4: &str = "
module arbiter4(input clk, input rst,
                input req0, input req1, input req2, input req3,
                output reg gnt0, output reg gnt1,
                output reg gnt2, output reg gnt3);
  reg [1:0] ptr;
  wire [3:0] req;
  wire [3:0] rot;
  wire [3:0] pick;
  wire [3:0] grant;
  assign req = {req3, req2, req1, req0};
  // Rotate requests so the pointer's port is at position 0.
  assign rot = (req >> ptr) | (req << (3'd4 - {1'b0, ptr}));
  // Fixed-priority pick on the rotated vector.
  assign pick = rot[0] ? 4'b0001 :
                rot[1] ? 4'b0010 :
                rot[2] ? 4'b0100 :
                rot[3] ? 4'b1000 : 4'b0000;
  // Rotate the pick back into port positions.
  assign grant = (pick << ptr) | (pick >> (3'd4 - {1'b0, ptr}));
  always @(posedge clk)
    if (rst) begin
      gnt0 <= 0; gnt1 <= 0; gnt2 <= 0; gnt3 <= 0;
      ptr <= 0;
    end else begin
      gnt0 <= grant[0] & req0;
      gnt1 <= grant[1] & req1;
      gnt2 <= grant[2] & req2;
      gnt3 <= grant[3] & req3;
      if (grant != 4'b0000)
        ptr <= ptr + 2'd1;
      else
        ptr <= ptr;
    end
endmodule
";

/// Rigel-like instruction fetch stage. Carries the signals the paper's
/// experiments name: `stall_in`, `branch_mispredict`, `branch_pc`,
/// `icache_rdvl_i` and the mined output `valid`. The PC is scaled to 4
/// bits so the explicit model checker stays exact (`gm_mc`'s
/// `ExplicitLimits` and the table budget in its `explicit` module docs).
pub const FETCH_STAGE: &str = "
module fetch_stage(input clk, input rst,
                   input stall_in, input branch_mispredict,
                   input [3:0] branch_pc, input icache_rdvl_i,
                   output reg valid, output reg [3:0] pc);
  always @(posedge clk)
    if (rst) begin
      valid <= 0;
      pc <= 0;
    end else begin
      if (branch_mispredict) begin
        pc <= branch_pc;
        valid <= 0;
      end else begin
        if (stall_in) begin
          pc <= pc;
          valid <= valid;
        end else begin
          if (icache_rdvl_i) begin
            pc <= pc + 4'd1;
            valid <= 1;
          end else begin
            pc <= pc;
            valid <= 0;
          end
        end
      end
    end
endmodule
";

/// Rigel-like instruction decode stage: a purely combinational field
/// decoder for a compact 12-bit instruction word. Complex expression
/// structure, no state — the paper's decode experiments stress
/// expression/condition coverage.
pub const DECODE_STAGE: &str = "
module decode_stage(input [11:0] instr, input instr_valid,
                    output [2:0] opcode, output [2:0] rd, output [2:0] rs,
                    output [2:0] imm,
                    output is_alu, output is_branch, output is_mem,
                    output uses_imm, output writes_rd, output illegal);
  assign opcode = instr[11:9];
  assign rd = instr[8:6];
  assign rs = instr[5:3];
  assign imm = instr[2:0];
  assign is_alu = instr_valid & ((opcode == 3'd0) | (opcode == 3'd1) |
                                 (opcode == 3'd2));
  assign is_branch = instr_valid & ((opcode == 3'd3) | (opcode == 3'd4));
  assign is_mem = instr_valid & ((opcode == 3'd5) | (opcode == 3'd6));
  assign uses_imm = instr_valid & ((opcode == 3'd1) | (opcode == 3'd4) |
                                   (opcode == 3'd6));
  assign writes_rd = is_alu | (is_mem & ~opcode[0]);
  assign illegal = instr_valid & (opcode == 3'd7);
endmodule
";

/// Rigel-like writeback stage: result selection between memory and ALU
/// paths with a stall override. Combinational (the paper calls
/// `wb_stage` its complex combinational case).
pub const WB_STAGE: &str = "
module wb_stage(input mem_valid, input alu_valid, input stall_in,
                input [3:0] mem_data, input [3:0] alu_data,
                input [2:0] dest,
                output [3:0] wb_data, output wb_we, output [2:0] wb_dest,
                output wb_valid);
  wire take_mem;
  assign take_mem = mem_valid & ~stall_in;
  assign wb_data = take_mem ? mem_data : alu_data;
  assign wb_valid = (mem_valid | alu_valid) & ~stall_in;
  assign wb_we = wb_valid & (dest != 3'd0);
  assign wb_dest = dest;
endmodule
";

/// ITC'99 b01-style block: an FSM comparing two serial flows,
/// re-implemented from the published description (outputs a comparison
/// bit and an overflow flag; eight control states).
pub const B01: &str = "
module b01(input clk, input rst, input line1, input line2,
           output reg outp, output reg overflw);
  localparam ST_A   = 3'd0;
  localparam ST_B   = 3'd1;
  localparam ST_C   = 3'd2;
  localparam ST_E   = 3'd3;
  localparam ST_F   = 3'd4;
  localparam ST_G   = 3'd5;
  localparam ST_WF0 = 3'd6;
  localparam ST_WF1 = 3'd7;
  reg [2:0] state;
  always @(posedge clk)
    if (rst) begin
      state <= ST_A; outp <= 0; overflw <= 0;
    end else begin
      overflw <= 0;
      case (state)
        ST_A: begin
          outp <= line1 ^ line2;
          if (line1 & line2) state <= ST_C;
          else state <= ST_B;
        end
        ST_B: begin
          outp <= line1 ^ line2;
          if (line1 & line2) state <= ST_E;
          else state <= ST_F;
        end
        ST_C: begin
          outp <= ~(line1 ^ line2);
          if (line1 | line2) state <= ST_E;
          else state <= ST_F;
        end
        ST_E: begin
          outp <= line1 ^ line2;
          if (line1 & line2) state <= ST_G;
          else state <= ST_WF0;
        end
        ST_F: begin
          outp <= ~(line1 ^ line2);
          if (line1 | line2) state <= ST_G;
          else state <= ST_WF0;
        end
        ST_G: begin
          outp <= line1 ^ line2;
          overflw <= line1 & line2;
          state <= ST_WF1;
        end
        ST_WF0: begin
          outp <= line1 | line2;
          state <= ST_A;
        end
        ST_WF1: begin
          outp <= line1 & line2;
          overflw <= line1 | line2;
          state <= ST_A;
        end
      endcase
    end
endmodule
";

/// ITC'99 b02-style block: a serial BCD recognizer FSM, re-implemented
/// from the published description (seven states, one serial input).
pub const B02: &str = "
module b02(input clk, input rst, input linea, output reg u);
  localparam A  = 3'd0;
  localparam B  = 3'd1;
  localparam C  = 3'd2;
  localparam D  = 3'd3;
  localparam E  = 3'd4;
  localparam F  = 3'd5;
  localparam G  = 3'd6;
  reg [2:0] state;
  always @(posedge clk)
    if (rst) begin
      state <= A; u <= 0;
    end else begin
      case (state)
        A: begin u <= 0; state <= B; end
        B: begin
          u <= 0;
          if (linea) state <= F; else state <= C;
        end
        C: begin u <= 0; state <= D; end
        D: begin
          u <= 0;
          if (linea) state <= G; else state <= E;
        end
        E: begin u <= 1; state <= B; end
        F: begin u <= 0; state <= G; end
        G: begin
          u <= 1;
          if (linea) state <= E; else state <= A;
        end
        default: begin u <= 0; state <= A; end
      endcase
    end
endmodule
";

/// ITC'99 b09-style block: a serial-to-serial converter with a shift
/// register and a small control FSM, re-implemented from the published
/// description at a 4-bit data width.
pub const B09: &str = "
module b09(input clk, input rst, input x, output reg y);
  localparam IDLE  = 2'd0;
  localparam LOAD  = 2'd1;
  localparam SHIFT = 2'd2;
  localparam EMIT  = 2'd3;
  reg [1:0] state;
  reg [3:0] sr;
  reg [1:0] cnt;
  always @(posedge clk)
    if (rst) begin
      state <= IDLE; sr <= 0; cnt <= 0; y <= 0;
    end else begin
      case (state)
        IDLE: begin
          y <= 0;
          sr <= sr;
          cnt <= 0;
          if (x) state <= LOAD; else state <= IDLE;
        end
        LOAD: begin
          y <= 0;
          sr <= {sr[2:0], x};
          cnt <= cnt + 2'd1;
          if (cnt == 2'd3) state <= SHIFT; else state <= LOAD;
        end
        SHIFT: begin
          y <= sr[3];
          sr <= {sr[2:0], 1'b0};
          cnt <= cnt + 2'd1;
          if (cnt == 2'd3) state <= EMIT; else state <= SHIFT;
        end
        EMIT: begin
          y <= ^sr;
          sr <= sr;
          cnt <= 0;
          state <= IDLE;
        end
      endcase
    end
endmodule
";

/// b12-style block (scaled): the ITC'99 b12 is a one-player memory game;
/// this lite version keeps its structural character — a game-control
/// FSM, an LFSR pattern generator, a round counter and win/lose flags.
pub const B12_LITE: &str = "
module b12_lite(input clk, input rst, input start, input [1:0] guess,
                output reg win, output reg lose, output reg [1:0] speaker);
  localparam IDLE = 2'd0;
  localparam PLAY = 2'd1;
  localparam WAIT = 2'd2;
  localparam DONE = 2'd3;
  reg [1:0] state;
  reg [2:0] lfsr;
  reg [1:0] round;
  always @(posedge clk)
    if (rst) begin
      state <= IDLE; lfsr <= 3'd5; round <= 0;
      win <= 0; lose <= 0; speaker <= 0;
    end else begin
      case (state)
        IDLE: begin
          win <= 0; lose <= 0; speaker <= 0;
          round <= 0;
          lfsr <= lfsr;
          if (start) state <= PLAY; else state <= IDLE;
        end
        PLAY: begin
          win <= 0; lose <= 0;
          speaker <= lfsr[1:0];
          lfsr <= {lfsr[1:0], lfsr[2] ^ lfsr[0]};
          round <= round;
          state <= WAIT;
        end
        WAIT: begin
          speaker <= speaker;
          lfsr <= lfsr;
          if (guess == speaker) begin
            win <= 0; lose <= 0;
            round <= round + 2'd1;
            if (round == 2'd3) state <= DONE; else state <= PLAY;
          end else begin
            win <= 0; lose <= 1;
            round <= round;
            state <= DONE;
          end
        end
        DONE: begin
          speaker <= 0;
          lfsr <= lfsr;
          round <= round;
          win <= ~lose & win | (round == 2'd3) & ~lose;
          lose <= lose;
          if (start) state <= DONE; else state <= IDLE;
        end
      endcase
    end
endmodule
";

/// b17-style block (scaled): the ITC'99 b17 instantiates three
/// processor-like blocks; this lite version interlocks a fetch-ish
/// counter pipeline, a decode FSM and a checksum datapath, with
/// deliberately hard-to-reach control corners so random stimulus
/// saturates below full coverage (the paper's Fig. 16 shape).
pub const B17_LITE: &str = "
module b17_lite(input clk, input rst, input [3:0] data_in,
                input enable, input mode,
                output reg [3:0] data_out, output reg busy, output reg err);
  localparam IDLE = 2'd0;
  localparam RUN  = 2'd1;
  localparam SYNC = 2'd2;
  localparam FAIL = 2'd3;
  reg [1:0] ctrl;
  reg [3:0] acc;
  reg [3:0] shadow;
  reg [2:0] guard;
  always @(posedge clk)
    if (rst) begin
      ctrl <= IDLE; acc <= 0; shadow <= 0; guard <= 0;
      data_out <= 0; busy <= 0; err <= 0;
    end else begin
      case (ctrl)
        IDLE: begin
          busy <= 0; err <= 0;
          data_out <= data_out;
          acc <= acc; shadow <= shadow;
          guard <= 0;
          if (enable) ctrl <= RUN; else ctrl <= IDLE;
        end
        RUN: begin
          busy <= 1; err <= 0;
          acc <= mode ? (acc ^ data_in) : (acc + data_in);
          shadow <= acc;
          data_out <= data_out;
          guard <= guard + 3'd1;
          if (guard == 3'd7) ctrl <= FAIL;
          else if (~enable) ctrl <= SYNC;
          else ctrl <= RUN;
        end
        SYNC: begin
          busy <= 1; err <= 0;
          data_out <= acc;
          acc <= acc; shadow <= shadow;
          guard <= 0;
          if (acc == shadow) ctrl <= IDLE; else ctrl <= SYNC;
        end
        FAIL: begin
          busy <= 0; err <= 1;
          acc <= 0; shadow <= 0; guard <= 0;
          data_out <= 4'b1111;
          if (enable & mode) ctrl <= IDLE; else ctrl <= FAIL;
        end
      endcase
    end
endmodule
";

/// b18-style block (scaled): two b17-style units sharing a bus with an
/// arbiter-ish selector; the deepest control corners require
/// coordinated multi-cycle input sequences, keeping random coverage low.
pub const B18_LITE: &str = "
module b18_lite(input clk, input rst, input [3:0] a_in, input [3:0] b_in,
                input sel, input go,
                output reg [3:0] bus, output reg done, output reg fault);
  localparam W0 = 2'd0;
  localparam W1 = 2'd1;
  localparam XFER = 2'd2;
  localparam HALT = 2'd3;
  reg [1:0] phase;
  reg [3:0] unit_a;
  reg [3:0] unit_b;
  reg [1:0] credit;
  always @(posedge clk)
    if (rst) begin
      phase <= W0; unit_a <= 0; unit_b <= 0; credit <= 2'd2;
      bus <= 0; done <= 0; fault <= 0;
    end else begin
      case (phase)
        W0: begin
          done <= 0; fault <= 0;
          unit_a <= a_in; unit_b <= unit_b;
          bus <= bus; credit <= credit;
          if (go) phase <= W1; else phase <= W0;
        end
        W1: begin
          done <= 0; fault <= 0;
          unit_b <= b_in; unit_a <= unit_a;
          bus <= bus;
          if (credit == 2'd0) begin
            phase <= HALT;
            credit <= credit;
          end else begin
            credit <= credit - 2'd1;
            phase <= XFER;
          end
        end
        XFER: begin
          bus <= sel ? unit_b : unit_a;
          done <= 1; fault <= 0;
          unit_a <= unit_a; unit_b <= unit_b;
          credit <= credit;
          if (go & sel & (unit_a == unit_b)) phase <= HALT;
          else phase <= W0;
        end
        HALT: begin
          done <= 0; fault <= 1;
          bus <= 0;
          unit_a <= unit_a; unit_b <= unit_b;
          credit <= 2'd2;
          if (go & ~sel) phase <= W0; else phase <= HALT;
        end
      endcase
    end
endmodule
";
